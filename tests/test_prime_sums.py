import math

import numpy as np
import pytest

from apmoments import counting, model, prime_sums, sieve
from apmoments.arith_fn import PrimeFunction, resolve_spec
from apmoments.cli import _predictions, main
from apmoments.counting import MODES
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
from apmoments.sieve import Progression
from oracles import HUGE_MODULI, sieve_primes

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
        primes = [int(p) for p in sieve_primes(10**6) if p % 4 == 3]
        oracle = math.fsum(1.0 / (p * math.log(p) ** 2) for p in primes if p >= 3)
        fn = PrimeFunction("one_over_log")
        got = prime_power_sum(fn, 2, 10**6, prog).value
        assert got == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize(
        "fn,u,prog",
        [
            (ONE, 1, Progression(4, 1)),
            (SQRTLOGLOG, 2, Progression(1, 0)),
            (PrimeFunction("one_over_loglog", c=-1.0), 1, Progression(3, 2)),
        ],
    )
    def test_block_partition_moves_sum_by_ulps(self, fn, u, prog, sieve_geometry):
        # per-block pairwise sums round differently and fsum adds no further
        # error; 1e-14 (~45 ulps) sits above numpy's pairwise-summation bound
        # for terms of one sign, which all three cases have
        x = 10**6
        ref = prime_power_sum(fn, u, x, prog).value
        for block in (1 << 10, 1 << 16):
            sieve_geometry(block, cache_max=0)
            got = prime_power_sum(fn, u, x, prog).value
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


class TestDensityReading:
    """prime_power_sum(..., mode="density") sums over every prime not dividing k."""

    @pytest.mark.parametrize("k, r", [(1, 0), (4, 1), (12, 5), (30, 7),
                                      *((k, 4999) for k in HUGE_MODULI)])
    @pytest.mark.parametrize("u", [1, 2])
    @pytest.mark.parametrize("fn", [ONE, SQRTLOGLOG, INVLOGLOG], ids=["const1", "sqrtloglog",
                                                                     "invloglog"])
    @pytest.mark.parametrize("layout", ["cached", "streamed"])
    def test_matches_brute_force(self, fn, u, k, r, layout, sieve_geometry):
        x = 10**5
        if layout == "streamed":
            sieve_geometry(1 << 12, cache_max=0)
        primes = np.array([p for p in sieve_primes(x).tolist()
                           if k % p and p >= fn.start_prime], dtype=np.int64)
        terms = fn.values_at(primes) ** u / primes
        got = prime_power_sum(fn, u, x, Progression(k, r), "density")
        assert got.term_count == primes.size  # the primes >= p0 not dividing k
        assert got.value == pytest.approx(math.fsum(terms.tolist()), rel=1e-14, abs=0)

    def test_one_value_for_every_class(self):
        x, k = 10**5, 12
        got = {(res.value, res.term_count) for res in (
            prime_power_sum(SQRTLOGLOG, 2, x, Progression(k, r), "density") for r in (1, 5, 7, 11))}
        assert len(got) == 1

    def test_counted_route_matches_the_sieve(self, monkeypatch):
        fn, x, prog = ONE, 2 * 10**7, Progression(4, 1)
        builds, build = [], counting.class_tables
        monkeypatch.setattr(counting, "class_tables", lambda *a: builds.append(a) or build(*a))
        got = prime_power_sum(fn, 1, x, prog, "density")
        assert builds == [(x, 4, 1)]
        monkeypatch.setattr(counting, "pays", lambda x, k: False)
        want = prime_power_sum(fn, 1, x, prog, "density")
        assert builds == [(x, 4, 1)]
        assert got.term_count == want.term_count == 1_270_606  # pi(2 10^7) less the prime 2
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0)

    def test_rejects_an_unknown_reading(self):
        with pytest.raises(ValueError, match="mode"):
            prime_power_sum(ONE, 1, 100, Progression(4, 1), "weighted")


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
            (PrimeFunction("constant"), DecayCase.CASE1, 1),
            (PrimeFunction("one_minus_one_over_log"), DecayCase.CASE2, 1),
            (PrimeFunction("one_minus_one_over_p"), DecayCase.CASE2, 1),
            (INVLOGLOG, DecayCase.CASE3, 1),
            (PrimeFunction("one_over_log"), DecayCase.CASE4, 1),
            (PrimeFunction("constant", c=-0.7), DecayCase.CASE1, -1),
            (PrimeFunction("one_over_loglog", c=-1.0), DecayCase.CASE3, -1),
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

    def test_zero_scale_rejected_like_zero_constant(self):
        zero = PrimeFunction("one_over_log", c=0.0)
        with pytest.raises(ValueError, match="zero function"):
            classify_decay(zero, 1)

    @pytest.mark.parametrize("u", [0, -1])
    def test_order_below_one_rejected(self, u):
        # order 0 read as Case4, "series converges", though the sum of 1/p diverges
        with pytest.raises(ValueError, match="order u"):
            classify_decay(INVLOGLOG, u)

    def test_case1_for_any_nonzero_constant(self):
        assert classify_decay(PrimeFunction("constant", c=2.0), 1).case is DecayCase.CASE1

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

    def test_one_prime_stream_for_all_checkpoints(self, monkeypatch):
        calls = []

        def counted(limit):
            calls.append(limit)
            return sieve_array(limit)

        sieve_array = sieve._sieve_array
        monkeypatch.setattr(sieve, "_cache", sieve._PrimeCache())  # cold cache
        monkeypatch.setattr(sieve, "_sieve_array", counted)
        prog, cps = Progression(4, 1), (10**3, 10**4, 10**5, 10**6)
        r = convergence_probe("custom", prog, cps, custom=(INVLOGLOG, 1))
        assert calls == [10**6]
        for cp, value in zip(cps, r.values):
            assert value == pytest.approx(prime_power_sum(INVLOGLOG, 1, cp, prog).value, rel=1e-14)

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


# The route table of every prime pass (counting.counted_tail): spec, --p0,
# n, class, and whether the primes past y = n // (n // 10^6) are counted.
ROUTES = [
    ("const:1", None, 2 * 10**7, 4, 1, True),
    ("const:-1.5", None, 4 * 10**6, 1, 0, True),
    ("omega", None, 4 * 10**6, 1, 0, True),
    ("tab:5=1.5,7=2,default=0.25", None, 4 * 10**6, 1, 0, True),  # keys below y
    ("const:1", 7, 2 * 10**7, 4, 3, True),
    ("sqrtloglog", None, 4 * 10**6, 1, 0, False),  # not constant
    ("omega1", None, 2 * 10**7, 4, 1, False),  # a residue filter
    ("const:1", 1_000_003, 4 * 10**6, 1, 0, False),  # p0 past y = 10^6
    ("const:1", None, 2 * 10**7, 7, 1, False),  # counting does not pay
    ("const:1", None, 2 * 10**6 - 1, 1, 0, False),  # n < 2 10^6: y would be n
]
ROUTE_IDS = ["const1-2e7-mod4", "const-1.5", "omega", "tab", "p0-7", "sqrtloglog",
             "omega1", "p0-past-y", "mod7", "n-below-2e6"]


class TestCountingRoute:
    """Every prime pass (sum, model exact, model lindeberg, the predictions)
    counts the primes past y by one rule, and agrees with the sieve."""

    @pytest.fixture
    def route(self, monkeypatch):
        """The routes prime_power_sum took, in call order."""
        taken = []
        tables, blocks = counting.class_tables, prime_sums.map_prime_blocks

        def spy_tables(*args):
            taken.append("counting")
            return tables(*args)

        def spy_blocks(*args):
            taken.append("sieve")
            return blocks(*args)

        monkeypatch.setattr(counting, "class_tables", spy_tables)
        monkeypatch.setattr(prime_sums, "map_prime_blocks", spy_blocks)
        return taken

    @pytest.fixture
    def sieved(self, monkeypatch):
        """call(*args) with counting refused: every prime sieved."""

        def run(call, *args):
            with monkeypatch.context() as m:
                m.setattr(counting, "pays", lambda x, k: False)
                return call(*args)

        return run

    @pytest.mark.parametrize("spec, p0, n, k, r, counted", ROUTES, ids=ROUTE_IDS)
    def test_every_pass_takes_the_route(self, spec, p0, n, k, r, counted, sieved, monkeypatch):
        prog = Progression(k, r)
        fn, _ = resolve_spec(spec, prog, p0=p0)
        tails, limits = [], []
        tail_sums, blocks = counting.tail_sums, model.map_prime_blocks
        monkeypatch.setattr(counting, "tail_sums", lambda *a: tails.append(a) or tail_sums(*a))
        monkeypatch.setattr(model, "map_prime_blocks",
                            lambda limit, *a: limits.append(limit) or blocks(limit, *a))
        y = n // (n // 10**6) if counted else n
        assert counting.counted_limit(fn, prog, n) == y

        want = sieved(prime_power_sum, fn, 1, n, prog)
        got = prime_power_sum(fn, 1, n, prog)
        assert got.term_count == want.term_count > 0
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0)
        for mode in MODES:
            want_mm = sieved(model.exact_moments, fn, prog, n, 6, mode)
            want_rep = sieved(model.lindeberg_check, fn, prog, n, 0.5, mode)
            limits.clear()
            mm = model.exact_moments(fn, prog, n, 6, mode)
            rep = model.lindeberg_check(fn, prog, n, 0.5, mode)
            # Lindeberg's second pass runs only where |f| straddles its threshold
            straddles = spec.startswith(("tab:", "sqrtloglog"))
            assert limits == ([y, y, y] if straddles else [y, y])
            if not counted:
                assert (mm, rep) == (want_mm, want_rep)
            assert mm.term_count == want_mm.term_count
            for u in range(1, 7):
                assert mm.kappa[u] == pytest.approx(want_mm.kappa[u], rel=1e-13)
            assert rep.variance == pytest.approx(want_rep.variance, rel=1e-14)
            assert rep.ratio == pytest.approx(want_rep.ratio, rel=1e-14)
        for mode in MODES:  # the mean predictions
            pred, want_pred = prime_power_sum(fn, 1, n, prog, mode), sieved(
                prime_power_sum, fn, 1, n, prog, mode)
            if not counted:
                assert pred == want_pred
            assert pred.term_count == want_pred.term_count
            assert pred.value == pytest.approx(want_pred.value, rel=1e-14, abs=0)
        assert {a[:3] for a in tails} == ({(n, k, y)} if counted else set())

    @pytest.mark.parametrize("spec, p0, n, k, r, counted", ROUTES, ids=ROUTE_IDS)
    def test_one_gate_past_the_sieve_ceiling(self, spec, p0, n, k, r, counted, monkeypatch,
                                              capsys):
        # a stand-in sieve ceiling below every n: only the counted route runs
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**6)
        args = ["--fn", spec, "--mod", str(k), "--res", str(r)]
        args += [] if p0 is None else ["--p0", str(p0)]
        for argv in (["sum", *args, "--x", str(n)], ["model", "exact", *args, "--n", str(n)],
                     ["model", "lindeberg", *args, "--n", str(n)]):
            if counted:
                assert main(argv) == 0
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert "exceeds ceiling" in capsys.readouterr().err

    def test_sum_is_the_restricted_prediction(self):
        # the reports' predictions are the sum at u = 1, one per reading
        fn, prog = ONE, Progression(4, 1)
        got = prime_power_sum(fn, 1, 10**8, prog)
        density = prime_power_sum(fn, 1, 10**8, prog, "density")
        assert got.term_count == 2_880_504  # pi(10^8; 4, 1)
        assert density.term_count == 5_761_454  # pi(10^8) less the prime 2
        assert _predictions(fn, prog, 10**8) == {"restricted_sum": got.value,
                                                 "density_sum": density.value}

    @pytest.mark.parametrize("x", [2 * 10**6, 3 * 10**6])
    @pytest.mark.parametrize("k", [1, 3, 4, 6, 9, 12])
    @pytest.mark.parametrize("spec, u, p0", [
        ("const:1", 1, None), ("const:-2.5", 3, None), ("omega", 1, None),
        ("scaled:0.75:const:2", 2, None), ("const:1", 1, 7), ("const:1", 1, "root"),
    ])
    def test_matches_the_sieve(self, spec, u, p0, k, x, route, sieved, monkeypatch):
        prog = Progression(k, k - 1 if k > 1 else 0)
        fn, _ = resolve_spec(spec, prog, p0=math.isqrt(x) + 1 if p0 == "root" else p0)
        want = sieved(prime_power_sum, fn, u, x, prog)
        monkeypatch.setattr(counting, "pays", lambda x, k: True)  # the rule admits k <= 2 here
        got = prime_power_sum(fn, u, x, prog)
        assert route == ["sieve", "counting", "sieve"]
        assert got.term_count == want.term_count > 0
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0)

    def test_classes_of_one_modulus_build_the_tables_once(self, route, monkeypatch):
        # the tail sums of every class are kept for the next call at the same
        # (x, k, y): a Mertens scan sums each class of a modulus in turn
        monkeypatch.setattr(counting, "pays", lambda x, k: True)  # the rule admits k <= 2 at 3e6
        x = 3 * 10**6
        got = [prime_power_sum(ONE, 1, x, Progression(k, r)) for k, r in ((4, 1), (4, 3))]
        assert route.count("counting") == 1
        got.append(prime_power_sum(ONE, 1, x, Progression(1, 0)))
        assert route.count("counting") == 2
        assert got[0].term_count + got[1].term_count + 1 == got[2].term_count  # and 2
        assert got[0].value + got[1].value + 0.5 == pytest.approx(got[2].value, rel=1e-14)

    def test_past_the_sieve_ceiling(self):
        res = prime_power_sum(ONE, 1, 2 * 10**10, Progression(1, 0))
        assert res.term_count == 882_206_716  # pi(2 10^10)
        with pytest.raises(ValueError, match="ceiling"):
            prime_power_sum(INVLOGLOG, 1, 2 * 10**10, Progression(1, 0))
