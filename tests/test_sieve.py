import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments.sieve import (
    Progression,
    SegmentSizeError,
    euler_phi,
    factorize,
    iter_prime_blocks,
    primes_in_progression,
    primes_upto_monolithic,
    sieve_primes,
)


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        if m > 2 and m % 2 == 0:
            continue
        if all(m % d for d in range(3, math.isqrt(m) + 1, 2)):
            out.append(m)
    return out


class TestProgression:
    def test_full_series(self):
        p = Progression(1, 0)
        assert p.count(10) == 10
        assert p.members(5).tolist() == [1, 2, 3, 4, 5]

    def test_members(self):
        p = Progression(4, 1)
        assert p.members(30).tolist() == [1, 5, 9, 13, 17, 21, 25, 29]
        assert p.count(30) == 8

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            Progression(4, 2)
        with pytest.raises(ValueError):
            Progression(0, 0)
        with pytest.raises(ValueError):
            Progression(4, 5)

    @given(st.integers(2, 40), st.integers(0, 39), st.integers(1, 500))
    def test_count_matches_enumeration(self, k, l, n):
        if l >= k or math.gcd(k, l) != 1:
            return
        p = Progression(k, l)
        expected = len([m for m in range(1, n + 1) if m % k == l])
        assert p.count(n) == expected


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_thirty(self):
        pr = sieve_primes(30)
        assert len(pr) == 10
        assert pr.primes[-1] == 29

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_rejects_bad_segment(self):
        with pytest.raises(SegmentSizeError):
            sieve_primes(100, block_size=4)

    def test_agrees_with_trial_division(self):
        assert sieve_primes(10**5).primes.tolist() == trial_division_primes(10**5)

    def test_segmented_matches_monolithic(self):
        # identical sequences for several block sizes, including odd ones
        mono = primes_upto_monolithic(10**6)
        for block in (1 << 12, 1 << 16, 999_983):
            seg = np.concatenate(list(iter_prime_blocks(10**6, block_size=block)))
            assert np.array_equal(seg, mono)

    def test_prime_count_1e7(self):
        assert len(sieve_primes(10**7)) == 664_579


class TestProgressionFilter:
    def test_examples(self):
        assert primes_in_progression(30, Progression(4, 1)).primes.tolist() == [5, 13, 17, 29]
        assert primes_in_progression(10, Progression(4, 3)).primes.tolist() == [3, 7]
        assert len(primes_in_progression(30, Progression(1, 0))) == 10

    @pytest.mark.parametrize("k", [3, 4, 5, 12])
    def test_partition_property(self, k):
        # coprime classes plus the primes dividing k tile the full prime set
        x = 10**4
        full = sieve_primes(x).primes.tolist()
        parts = [p for p in full if k % p == 0]
        for l in range(k):
            if math.gcd(k, l) == 1:
                parts.extend(primes_in_progression(x, Progression(k, l)).primes.tolist())
        assert sorted(parts) == full

    def test_modulus_primes_never_listed(self):
        for l in (1, 3):
            pr = primes_in_progression(10**4, Progression(4, l))
            assert 2 not in pr.primes


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(29) == [(29, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(2, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_product_roundtrip(self, m):
        factors = factorize(m)
        prod = 1
        seen = set()
        for p, a in factors:
            assert a >= 1
            assert p not in seen
            seen.add(p)
            prod *= p**a
        assert prod == m


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(4) == 2
        assert euler_phi(12) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @given(st.integers(1, 3000))
    @settings(max_examples=100, deadline=None)
    def test_counts_coprime_residues(self, k):
        assert euler_phi(k) == sum(1 for r in range(k) if math.gcd(r, k) == 1) or k == 1
        if k == 1:
            assert euler_phi(1) == 1
