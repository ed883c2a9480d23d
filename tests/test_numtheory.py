import math

import pytest
from hypothesis import given, strategies as st

from pgk.numtheory import (
    divisors,
    euler_phi,
    is_prime,
    is_power_of,
    is_prime_power,
    prime_factorization,
)

from helpers import phi_table


class TestPrimeFactorization:
    def test_one_gives_empty_product(self):
        assert prime_factorization(1) == []

    def test_twelve(self):
        assert prime_factorization(12) == [(2, 2), (3, 1)]

    def test_twentyseven(self):
        assert prime_factorization(27) == [(3, 3)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prime_factorization(0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_reconstructs_input(self, n):
        fact = prime_factorization(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(is_prime(p) for p, _ in fact)
        assert [p for p, _ in fact] == sorted({p for p, _ in fact})


class TestIsPrime:
    def test_matches_sieve(self):
        # sieve of Eratosthenes, independent of the factorization
        limit = 10**4
        sieve = [False, False] + [True] * (limit - 1)
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
        assert [is_prime(n) for n in range(1, limit + 1)] == sieve[1:]

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_non_positive(self, n):
        with pytest.raises(ValueError):
            is_prime(n)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(7) == 6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @given(st.integers(min_value=1, max_value=2000))
    def test_counts_coprime_residues(self, n):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(8) == [1, 2, 4, 8]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=10**4))
    def test_matches_trial_division(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestIsPrimePower:
    def test_examples(self):
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(1) is None
        assert is_prime_power(12) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_prime_power(0)

    @given(st.integers(min_value=1, max_value=10**5))
    def test_iff_single_prime_factor(self, n):
        present = is_prime_power(n) is not None
        assert present == (len(prime_factorization(n)) == 1)


class TestIsPowerOf:
    def test_examples(self):
        assert is_power_of(1, 3)
        assert is_power_of(27, 3)
        assert not is_power_of(12, 2)
        assert not is_power_of(5, 2)

    def test_rejects_bad_arguments(self):
        # n = 0 or p = 1 would divide forever
        with pytest.raises(ValueError):
            is_power_of(0, 2)
        with pytest.raises(ValueError):
            is_power_of(4, 1)

    @given(st.integers(min_value=1, max_value=10**5), st.integers(2, 50))
    def test_matches_power_list(self, n, p):
        powers = {p**k for k in range(n.bit_length() + 1)}
        assert is_power_of(n, p) == (n in powers)


class TestPhiTable:
    def test_agrees_with_euler_phi(self):
        table = phi_table(200)
        assert all(table[n] == euler_phi(n) for n in range(1, 201))

    def test_totient_divisor_sum(self):
        # sum of phi(d) over d | n equals n, for all n up to 10^4
        limit = 10**4
        phi = phi_table(limit)
        acc = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for n in range(d, limit + 1, d):
                acc[n] += phi[d]
        assert all(acc[n] == n for n in range(1, limit + 1))

    def test_divisor_pair_monotonicity(self):
        # for a | b, a != b, b <= 10^4: phi(a) | phi(b), phi(a) <= phi(b),
        # with equality exactly when b = 2a and a is odd
        limit = 10**4
        phi = phi_table(limit)
        for a in range(1, limit // 2 + 1):
            for b in range(2 * a, limit + 1, a):
                assert phi[b] % phi[a] == 0
                assert phi[a] <= phi[b]
                if phi[a] == phi[b]:
                    assert b == 2 * a and a % 2 == 1
