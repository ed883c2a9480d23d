"""Exact integer number theory used throughout the package.

Everything here works on plain Python ints.  Inputs are group orders
(a few thousand at most), so trial division is entirely adequate.
"""

from __future__ import annotations

__all__ = [
    "prime_factorization",
    "euler_phi",
    "divisors",
    "is_prime",
    "is_prime_power",
    "is_power_of",
]


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"argument must be a positive integer, got {n}")


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Return the factorization of n as (prime, exponent) pairs, primes
    ascending.  n = 1 yields the empty list."""
    _check_positive(n)
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
    _check_positive(n)
    result = n
    for p, _ in prime_factorization(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order, including 1 and n."""
    _check_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    _check_positive(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, k >= 1, or None.

    1 is not considered a prime power here.
    """
    _check_positive(n)
    fact = prime_factorization(n)
    if len(fact) == 1:
        return fact[0]
    return None


def is_power_of(n: int, p: int) -> bool:
    """True iff n = p^k for some k >= 0, so 1 is a power of every p."""
    _check_positive(n)
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    while n % p == 0:
        n //= p
    return n == 1

