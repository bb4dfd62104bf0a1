import math

import numpy as np
import pytest

from apmoments.arith_fn import PrimeFunction
from apmoments.prime_sums import (
    ClosedFormUnavailable,
    DecayCase,
    QuadratureError,
    adaptive_simpson,
    classify_decay,
    closed_form_asymptotic,
    convergence_probe,
    divergence_probe,
    integral_asymptotic,
    prime_power_sum,
)
from apmoments.sieve import Progression, sieve_primes

ONE = PrimeFunction("constant", c=1.0)
INVLOGLOG = PrimeFunction("one_over_loglog")
SQRTLOGLOG = PrimeFunction("sqrt_loglog")


class TestPrimePowerSum:
    def test_hand_enumeration_4_1(self):
        r = prime_power_sum(ONE, 1, 30, Progression(4, 1))
        assert r.value == pytest.approx(1 / 5 + 1 / 13 + 1 / 17 + 1 / 29, rel=1e-15)
        assert r.value == pytest.approx(0.370229, abs=1e-6)
        assert r.term_count == 4

    def test_hand_enumeration_full(self):
        r = prime_power_sum(ONE, 1, 10, Progression(1, 0))
        assert r.value == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-15)
        assert r.value == pytest.approx(1.176190, abs=1e-6)

    def test_below_start_prime_empty(self):
        r = prime_power_sum(INVLOGLOG, 2, 9, Progression(1, 0))
        assert r.value == 0.0
        assert r.term_count == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prime_power_sum(ONE, 0, 100, Progression(1, 0))
        with pytest.raises(ValueError):
            prime_power_sum(ONE, 1, 1, Progression(1, 0))

    def test_monotone_in_x_for_single_signed(self):
        prog = Progression(3, 1)
        values = [
            prime_power_sum(INVLOGLOG, 1, x, prog).value
            for x in (10**2, 10**3, 10**4, 10**5, 10**6)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_compensated_matches_fsum_oracle(self):
        prog = Progression(4, 3)
        primes = [int(p) for p in sieve_primes(10**6).primes if p % 4 == 3]
        oracle = math.fsum(1.0 / (p * math.log(p) ** 2) for p in primes if p >= 3)
        fn = PrimeFunction("one_over_log")
        got = prime_power_sum(fn, 2, 10**6, prog).value
        assert got == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize(
        "fn,u,prog",
        [
            (ONE, 1, Progression(4, 1)),
            (SQRTLOGLOG, 2, Progression(1, 0)),
            (PrimeFunction("scaled", c=-1.0, inner=INVLOGLOG), 1, Progression(3, 2)),
        ],
    )
    def test_block_partition_moves_sum_by_ulps(self, fn, u, prog):
        # per-block pairwise sums round differently and fsum adds no further
        # error; 1e-14 (~45 ulps) sits above numpy's pairwise-summation bound
        # for terms of one sign, which all three cases have
        x = 10**6
        ref = prime_power_sum(fn, u, x, prog).value
        for block in (1 << 10, 1 << 16):
            got = prime_power_sum(fn, u, x, prog, block_size=block).value
            assert got == pytest.approx(ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [3, 4, 5, 12])
    def test_residue_partition(self, k):
        # classes plus primes dividing k reassemble the unfiltered sum
        x = 10**6
        fn = PrimeFunction("one_minus_one_over_p")
        total = prime_power_sum(fn, 2, x, Progression(1, 0)).value
        parts = [
            prime_power_sum(fn, 2, x, Progression(k, l)).value
            for l in range(k)
            if math.gcd(k, l) == 1
        ]
        modulus_primes = [p for p in (2, 3, 5, 7, 11) if k % p == 0]
        f = fn.values_at(np.array(modulus_primes, dtype=np.int64)) if modulus_primes else np.array([])
        parts.append(float(np.sum(f**2 / np.array(modulus_primes, dtype=np.float64))) if modulus_primes else 0.0)
        assert math.fsum(parts) == pytest.approx(total, rel=1e-12)


class TestQuadrature:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda t: t * t, 0, 3) == pytest.approx(9.0, rel=1e-12)

    def test_failure_reports_achieved_tolerance(self):
        # a kink the subdivision cap cannot resolve at the requested tolerance
        with pytest.raises(QuadratureError) as err:
            adaptive_simpson(lambda t: abs(t - math.pi / 10) ** 0.1, 0, 1, rel_tol=1e-15, max_depth=4)
        assert err.value.achieved > 1e-15

    def test_integral_example_mertens(self):
        # antiderivative of 1/(t ln t) is lnln t
        est = integral_asymptotic(ONE, 1, 10**6, 1)
        want = math.log(math.log(10**6)) - math.log(math.log(2))
        assert est.main_term == pytest.approx(want, rel=1e-8)

    def test_triple_log_closed_form(self):
        est = closed_form_asymptotic(INVLOGLOG, 1, 10**8, 4)
        want = 0.5 * (math.log(math.log(math.log(10**8))) - math.log(math.log(math.log(11))))
        assert est.main_term == pytest.approx(want, rel=1e-12)
        assert est.formula_tag == "lnlnln"

    def test_power_of_loglog_closed_form(self):
        est = closed_form_asymptotic(SQRTLOGLOG, 2, 10**6, 4)
        e = 2.0
        p0 = 3
        want = 0.5 * (math.log(math.log(10**6)) ** e - math.log(math.log(p0)) ** e) / e
        assert est.main_term == pytest.approx(want, rel=1e-12)
        assert est.formula_tag == "power-of-loglog"

    @pytest.mark.parametrize("x", [10**4, 10**6, 10**8])
    @pytest.mark.parametrize(
        "fn,u,k",
        [
            (ONE, 1, 1),
            (ONE, 1, 4),
            (PrimeFunction("constant", c=0.7), 1, 4),
            (INVLOGLOG, 1, 4),
            (SQRTLOGLOG, 2, 4),
            (SQRTLOGLOG, 3, 3),
        ],
    )
    def test_quadrature_cross_check(self, fn, u, k, x):
        quad = integral_asymptotic(fn, u, x, k)
        closed = closed_form_asymptotic(fn, u, x, k)
        assert quad.main_term == pytest.approx(closed.main_term, rel=1e-6)
        assert quad.error_magnitude_1 >= 0 and quad.error_magnitude_2 >= 0

    def test_no_closed_form_signal(self):
        with pytest.raises(ClosedFormUnavailable):
            closed_form_asymptotic(PrimeFunction("one_over_log"), 1, 10**6, 1)
        with pytest.raises(ClosedFormUnavailable):
            closed_form_asymptotic(INVLOGLOG, 2, 10**6, 1)


class TestClassifier:
    @pytest.mark.parametrize(
        "fn,case,sign",
        [
            (PrimeFunction("constant", c=0.7), DecayCase.CASE1, 1),
            (PrimeFunction("indicator_one"), DecayCase.CASE1, 1),
            (PrimeFunction("one_minus_one_over_log"), DecayCase.CASE2, 1),
            (PrimeFunction("one_minus_one_over_p"), DecayCase.CASE2, 1),
            (INVLOGLOG, DecayCase.CASE3, 1),
            (PrimeFunction("one_over_log"), DecayCase.CASE4, 1),
            (PrimeFunction("constant", c=-0.7), DecayCase.CASE1, -1),
            (PrimeFunction("scaled", c=-1.0, inner=PrimeFunction("one_over_loglog")), DecayCase.CASE3, -1),
        ],
    )
    def test_catalogue(self, fn, case, sign):
        got = classify_decay(fn, 1)
        assert got.case is case
        assert got.sign == sign

    def test_tabulated_inconclusive(self):
        got = classify_decay(PrimeFunction("tabulated", table=((5, 1.0),)), 1)
        assert got.case is None
        assert got.label == "inconclusive"

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            classify_decay(PrimeFunction("constant", c=0.0), 1)

    def test_higher_order_series_convergence(self):
        assert classify_decay(INVLOGLOG, 2).case is DecayCase.CASE4


class TestProbes:
    def test_inv_p_squared_converges(self):
        r = convergence_probe("inv_p_squared", Progression(4, 1), (10**4, 10**5, 10**6, 10**7))
        assert r.verdict == "converging"
        assert r.values[-1] - r.values[-2] < 1e-6
        assert r.tail_bound is not None and r.tail_bound < 1e-6

    def test_inv_p_logp_converges(self):
        r = convergence_probe("inv_p_logp", Progression(4, 1))
        assert r.verdict == "converging"

    def test_inv_p_log2p_converges(self):
        r = convergence_probe("inv_p_log2p", Progression(4, 1))
        assert r.verdict == "converging"

    def test_constant_diverges(self):
        r = convergence_probe("custom", Progression(4, 1), custom=(ONE, 1))
        assert r.verdict == "diverging"

    def test_partial_sums_monotone(self):
        r = convergence_probe("custom", Progression(3, 2), custom=(INVLOGLOG, 1))
        assert all(b >= a for a, b in zip(r.values, r.values[1:]))

    def test_rejects_unsorted_checkpoints(self):
        with pytest.raises(ValueError):
            convergence_probe("inv_p_squared", Progression(1, 0), (100, 100))

    def test_rate_integral_log_converges(self):
        # the integral tends to a constant for the 1/(t ln t) summand
        r = divergence_probe(PrimeFunction("one_over_log"), 1)
        assert r.verdict == "converging"

    def test_rate_integral_loglog_diverges(self):
        r = divergence_probe(INVLOGLOG, 1)
        assert r.verdict == "diverging"

    def test_rate_integral_constant_diverges(self):
        # I(n) grows like lnln(n), confirmed numerically
        r = divergence_probe(PrimeFunction("constant", c=0.5), 1)
        assert r.verdict == "diverging"
        growth = [abs(b) - abs(a) for a, b in zip(r.values, r.values[1:])]
        assert all(g > 0 for g in growth)
