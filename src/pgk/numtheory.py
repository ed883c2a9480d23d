"""Exact integer number theory used throughout the package.

Everything here works on plain Python ints and derives from one
factorization: `prime_factorization` is the only trial-division loop,
and divisors, Euler's phi, `is_prime` and `is_prime_power` are read off
its pairs (`is_power_of` divides by its base, which need not be prime).
Inputs are group orders (a few thousand at most), so trial division is
entirely adequate.
"""

from __future__ import annotations

from math import prod

__all__ = [
    "prime_factorization",
    "euler_phi",
    "divisors",
    "is_prime",
    "is_prime_power",
    "is_power_of",
]


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Return the factorization of n as (prime, exponent) pairs, primes
    ascending.  n = 1 yields the empty list."""
    if n < 1:
        raise ValueError(f"argument must be a positive integer, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """Number of integers in [1, n] coprime to n."""
    return prod((p - 1) * p ** (e - 1) for p, e in prime_factorization(n))


def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order, including 1 and n."""
    out = [1]
    for p, e in prime_factorization(n):
        out += [d * p**k for k in range(1, e + 1) for d in out]
    return sorted(out)


def is_prime(n: int) -> bool:
    return prime_factorization(n) == [(n, 1)]


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, k >= 1, or None.

    1 is not considered a prime power here.
    """
    fact = prime_factorization(n)
    if len(fact) == 1:
        return fact[0]
    return None


def is_power_of(n: int, p: int) -> bool:
    """True iff n = p^k for some k >= 0, so 1 is a power of every p."""
    if n < 1:
        raise ValueError(f"argument must be a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    while n % p == 0:
        n //= p
    return n == 1
