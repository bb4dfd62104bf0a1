"""Class-wise prime counting against the sieve, known values of pi and of
the digamma function, and the cost rule's measured decisions."""

import math

import numpy as np
import pytest

from apmoments import counting
from apmoments.arith_fn import parse_fn
from apmoments.counting import class_tables, digamma
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression, sieve_primes

EULER_GAMMA = 0.5772156649015329


class TestDigamma:
    def test_known_values(self):
        # psi(1) = -gamma, psi(1/2) = -gamma - 2 ln 2, psi(n + 1) = H_n - gamma
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), rel=1e-15)
        for n in (5, 11, 12, 40, 10**6):
            harmonic = math.fsum(1.0 / i for i in range(1, n + 1))
            assert digamma(n + 1.0) == pytest.approx(harmonic - EULER_GAMMA, rel=2e-15)

    def test_recurrence_across_the_series_threshold(self):
        # |psi| <= 21 here, so a few ulps of psi are below 1e-14
        z = np.array([0.05, 0.3, 2.5, 11.5, 11.999, 12.0, 12.5, 1e3])
        assert np.allclose(digamma(z + 1.0) - digamma(z), 1.0 / z, rtol=0, atol=1e-14)


def _every_floor_value(x):
    r = math.isqrt(x)
    return sorted(set(range(1, r + 1)) | {x // i for i in range(1, r + 1)})


class TestClassTables:
    @pytest.mark.parametrize("x, k", [
        (2, 1), (3, 2), (30, 1), (1000, 1), (99_991, 4), (10**5, 6), (123_457, 9),
        (10**6, 12), (777_777, 7), (10**6 + 3, 30), (2 * 10**6, 3),
    ])
    def test_counts_equal_the_sieve_at_every_floor_value(self, x, k):
        t = class_tables(x, k)
        assert t.values.tolist() == _every_floor_value(x)
        primes = sieve_primes(x)
        for row, a in enumerate(t.units):
            cls = primes[primes % k == a] if k > 1 else primes
            assert np.array_equal(t.counts[row], np.searchsorted(cls, t.values, side="right"))

    @pytest.mark.parametrize("x, k", [(10**6, 4), (10**6 + 7, 9), (3 * 10**6, 12), (10**7, 30)])
    def test_sums_match_an_exact_oracle_at_floor_values(self, x, k):
        t = class_tables(x, k)
        primes = sieve_primes(x)
        for a in t.units:
            cls = primes[primes % k == a] if k > 1 else primes
            for v in {x, x // 2, x // 3, x // 17, math.isqrt(x), math.isqrt(x) // 3 + 1}:
                want = math.fsum((1.0 / cls[cls <= v]).tolist())
                assert t.at(v, a) == (np.count_nonzero(cls <= v), pytest.approx(want, rel=1e-14, abs=0))

    @pytest.mark.parametrize("x, k, residues", [
        (10**8, 1, (0,)), (10**8, 3, (1, 2)), (10**8, 12, (1, 5, 7, 11)), (10**9, 4, (1,)),
    ])
    def test_sums_match_the_sieve_route(self, x, k, residues, monkeypatch):
        monkeypatch.setattr(counting, "pays", lambda x, k: False)
        one = parse_fn("const:1")
        t = class_tables(x, k)
        for a in residues:
            res = prime_power_sum(one, 1, x, Progression(k, a))
            assert t.at(x, a) == (res.term_count, pytest.approx(res.value, rel=1e-14, abs=0))

    def test_pi_of_ten_to_the_ten(self):
        t = class_tables(10**10, 4)
        # 2 is the one prime in neither class
        assert t.at(10**10, 1)[0] + t.at(10**10, 3)[0] + 1 == 455_052_511

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            class_tables(1, 4)
        with pytest.raises(ValueError):
            class_tables(100, 0)


class TestCostRule:
    @pytest.mark.parametrize("x, k, counts", [
        (4 * 10**8, 1, True), (4 * 10**8, 4, True), (4 * 10**8, 12, True),
        (4 * 10**8, 7, False), (4 * 10**8, 9, False), (4 * 10**8, 30, False),
        (4 * 10**9, 12, True), (4 * 10**9, 24, False), (4 * 10**9, 60, False),
        (10**12, 4, True), (10**12, 6, True), (10**12, 5, False),
        (10**6, 1, True), (10**6, 3, False), (10**12, 9 * 10**19 + 1, False),
    ])
    def test_measured_decisions(self, x, k, counts):
        assert counting.pays(x, k) is counts
