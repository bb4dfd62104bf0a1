import math
from fractions import Fraction

import numpy as np
import pytest

from apmoments import model, sieve
from apmoments.arith_fn import (
    Extension,
    FunctionPair,
    PrimeFunction,
    builtin,
)
from apmoments.config import MODEL_BLOCK
from apmoments.model import (
    MODES,
    BernoulliTerm,
    _cumulants_to_central,
    brute_force_central_moments,
    compare_pair,
    exact_moments,
    lindeberg_check,
    mean_predictions,
    mode_primes,
    central_moment_first_order,
    sample,
)
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression, primes_in_progression, sieve_primes

ONE = PrimeFunction("constant", c=1.0)
FULL = Progression(1, 0)


class TestExactMoments:
    def test_single_bernoulli_term(self):
        # X = 1 w.p. 1/5: kappa1 = 0.2, mu2 = 0.16, mu3 = 0.2*0.8^3 - 0.8*0.2^3
        tab = PrimeFunction("tabulated", table=((5, 1.0),), default=0.0)
        mm = exact_moments(tab, FULL, 5, u_max=3)
        assert mm.kappa[1] == pytest.approx(0.2, rel=1e-15)
        assert mm.mu[2] == pytest.approx(0.16, rel=1e-14)
        assert mm.mu[3] == pytest.approx(0.096, rel=1e-14)

    def test_mean_first_four_primes(self):
        mm = exact_moments(ONE, FULL, 10, u_max=2)
        assert mm.kappa[1] == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-15)

    def test_empty_prime_set(self):
        fn = PrimeFunction("one_over_loglog")  # start prime 11
        mm = exact_moments(fn, FULL, 9, u_max=4)
        assert mm.term_count == 0
        assert all(v == 0.0 for v in mm.kappa.values())
        assert all(v == 0.0 for v in mm.mu.values())

    @pytest.mark.parametrize(
        "fn",
        [ONE, PrimeFunction("constant", c=0.7), PrimeFunction("one_over_log")],
    )
    def test_cumulant_path_matches_brute_force(self, fn):
        primes = sieve_primes(29).primes  # first 10 primes
        terms = [BernoulliTerm(int(p), float(fn.values_at([int(p)])[0])) for p in primes]
        oracle = brute_force_central_moments(terms, 6)
        mm = exact_moments(fn, FULL, 29, u_max=6)
        for u in range(2, 7):
            assert mm.mu[u] == pytest.approx(oracle[u], rel=1e-10)

    def test_exact_variance_identity(self):
        prog = Progression(4, 1)
        mm = exact_moments(ONE, prog, 10**5, u_max=2)
        p = mode_primes(prog, 10**5, "restricted").astype(np.float64)
        closed = float(np.sum(1.0 / p - 1.0 / p**2))
        assert mm.mu[2] == pytest.approx(closed, rel=1e-12)

    def test_gap_bound(self):
        # low orders: central moments equal cumulants and sit within a
        # binomial multiple of the per-prime gap budget
        mm = exact_moments(ONE, Progression(4, 3), 10**4, u_max=6)
        assert abs(mm.mu[2] - mm.first_order[2]) <= mm.gap_bound[2] * (1 + 1e-12)
        assert abs(mm.mu[3] - mm.first_order[3]) <= 5.0 * mm.gap_bound[3]
        # higher orders: the additive-under-independence transform is the
        # cumulant, and only it stays within a combinatorial multiple of
        # the budget (mu_4 picks up 3*kappa_2^2 and drifts away)
        for u in range(2, 7):
            assert abs(mm.kappa[u] - mm.first_order[u]) <= 4.0**u * mm.gap_bound[u]
        assert abs(mm.mu[4] - mm.first_order[4]) > mm.gap_bound[4]

    def test_modes_differ_by_class(self):
        prog = Progression(4, 1)
        restricted = exact_moments(ONE, prog, 100, u_max=1, mode="restricted")
        density = exact_moments(ONE, prog, 100, u_max=1, mode="density")
        # density uses every odd prime, restricted only the 1 mod 4 class
        assert density.term_count > restricted.term_count
        assert density.kappa[1] > restricted.kappa[1]
        with pytest.raises(ValueError):
            exact_moments(ONE, prog, 100, mode="weighted")


def _bernoulli_cumulant_polys(u_max):
    """Integer coefficients (index = power of q) of kappa_j(q), the j-th
    cumulant of Bernoulli(q): kappa_1 = q, kappa_{j+1} = q(1 - q) d kappa_j/dq."""
    polys = {1: [0, 1]}
    for j in range(1, u_max):
        deriv = [i * c for i, c in enumerate(polys[j])][1:]
        nxt = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            nxt[i + 1] += c
            nxt[i + 2] -= c
        polys[j + 1] = nxt
    return polys


def _whole_array_moments(fn, progression, n, u_max, mode):
    """The former computation: one (u_max + 1) x P matrix of per-prime raw
    moments over the whole prime set, then one of per-prime cumulants."""
    if mode == "restricted":
        primes = primes_in_progression(n, progression).primes
    else:
        primes = sieve_primes(n).primes
        primes = primes[progression.modulus % primes != 0]
    fv = fn.values_at(primes)
    active = fv != 0.0
    p = primes[active].astype(np.float64)
    f = fv[active]
    raw = np.zeros((u_max + 1, p.size))
    raw[0] = 1.0
    power = np.ones_like(f)
    first, gap = {}, {}
    for j in range(1, u_max + 1):
        power = power * f
        raw[j] = power / p
        first[j] = float(np.sum(raw[j]))
        gap[j] = float(np.sum(np.abs(power) / p / p))
    kappa_terms = np.zeros_like(raw)
    for order in range(1, u_max + 1):
        acc = raw[order].copy()
        for j in range(1, order):
            acc -= math.comb(order - 1, j - 1) * kappa_terms[j] * raw[order - j]
        kappa_terms[order] = acc
    kappa = {j: float(np.sum(kappa_terms[j])) for j in range(1, u_max + 1)}
    central = _cumulants_to_central([0.0] + [kappa[j] for j in range(1, u_max + 1)])
    mu = {j: central[j] for j in range(1, u_max + 1)}
    return kappa, mu, first, gap, int(p.size)


TABULATED = PrimeFunction("tabulated", table=((2, 1.5), (3, -0.5), (7, 2.0)), default=0.25)


class TestStreamedModel:
    @pytest.mark.parametrize(
        "fn", [ONE, PrimeFunction("constant", c=0.7), TABULATED], ids=["const1", "const07", "tab"]
    )
    def test_cumulants_match_exact_rational_sum(self, fn):
        # kappa_j = sum_p f(p)^j kappa_j(1/p), each term exact in Fraction and
        # correctly rounded once; math.fsum adds the rounded terms exactly
        u_max, n = 10, 10**4
        polys = _bernoulli_cumulant_polys(u_max)
        primes = sieve_primes(n).primes.tolist()
        f_exact = [Fraction(float(v)) for v in fn.values_at(primes)]
        mm = exact_moments(fn, FULL, n, u_max=u_max)
        for j in range(1, u_max + 1):
            kappa, first, gap = [], [], []
            for p, f in zip(primes, f_exact):
                q_poly = Fraction(sum(c * p ** (j - i) for i, c in enumerate(polys[j])), p**j)
                kappa.append(float(f**j * q_poly))
                first.append(float(f**j / p))
                gap.append(float(abs(f) ** j / p**2))
            assert mm.kappa[j] == pytest.approx(math.fsum(kappa), rel=1e-13)
            assert mm.first_order[j] == pytest.approx(math.fsum(first), rel=1e-13)
            assert mm.gap_bound[j] == pytest.approx(math.fsum(gap), rel=1e-13)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fn", [ONE, PrimeFunction("sqrt_loglog")], ids=["const1", "sqrtloglog"])
    def test_matches_whole_array_recursion(self, fn, mode):
        prog = Progression(4, 1)
        kappa, mu, first, gap, count = _whole_array_moments(fn, prog, 10**6, 10, mode)
        mm = exact_moments(fn, prog, 10**6, u_max=10, mode=mode)
        assert mm.term_count == count
        for u in range(1, 11):
            assert mm.kappa[u] == pytest.approx(kappa[u], rel=1e-12)
            assert mm.mu[u] == pytest.approx(mu[u], rel=1e-12)
            assert mm.first_order[u] == pytest.approx(first[u], rel=1e-12)
            assert mm.gap_bound[u] == pytest.approx(gap[u], rel=1e-12)

    def test_recursion_sees_only_blocks(self, monkeypatch):
        # density mode on 1 mod 4 up to 10^6 has 78497 active primes: two row blocks
        widths = []
        recursion = model._raw_to_cumulants

        def recording(raw):
            widths.append(raw.shape[1])
            return recursion(raw)

        monkeypatch.setattr(model, "_raw_to_cumulants", recording)
        mm = exact_moments(ONE, Progression(4, 1), 10**6, u_max=6, mode="density")
        assert max(widths) <= MODEL_BLOCK
        assert len(widths) == 2 and sum(widths) == mm.term_count

    def test_runs_without_a_materialized_prime_set(self, monkeypatch):
        fn, prog, n = PrimeFunction("sqrt_loglog"), Progression(4, 1), 10**5
        want = {mode: (exact_moments(fn, prog, n, u_max=6, mode=mode),
                       lindeberg_check(fn, prog, n, 0.5, mode=mode)) for mode in MODES}
        want_preds = mean_predictions(fn, prog, n)

        def refuse(*args, **kwargs):
            raise AssertionError("the model materialized its whole prime set")

        for name in ("sieve_primes", "primes_in_progression"):
            monkeypatch.setattr(model, name, refuse, raising=False)
            monkeypatch.setattr(sieve, name, refuse)
        blocks = []

        def streamed(limit, progression=None, block_size=None):
            # small sieve segments, never the prime cache
            for block in sieve.iter_prime_blocks(limit, progression, block_size=1 << 12):
                blocks.append(block.size)
                yield block

        monkeypatch.setattr(model, "iter_prime_blocks", streamed)
        for mode in MODES:
            mm, rep = want[mode]
            got = exact_moments(fn, prog, n, u_max=6, mode=mode)
            assert got.term_count == mm.term_count
            for u in range(1, 7):
                assert got.kappa[u] == pytest.approx(mm.kappa[u], rel=1e-13)
                assert got.mu[u] == pytest.approx(mm.mu[u], rel=1e-13)
            got_rep = lindeberg_check(fn, prog, n, 0.5, mode=mode)
            assert got_rep.variance == pytest.approx(rep.variance, rel=1e-13)
            assert got_rep.ratio == pytest.approx(rep.ratio, rel=1e-13)
            assert got_rep.max_over_sqrt_d == pytest.approx(rep.max_over_sqrt_d, rel=1e-13)
        preds = mean_predictions(fn, prog, n)
        for mode in MODES:
            assert preds[mode] == pytest.approx(want_preds[mode], rel=1e-13)
        assert len(blocks) > 20 and max(blocks) < 1 << 12


class TestCentralMomentFirstOrder:
    def test_equals_prime_power_sum(self):
        prog = Progression(4, 1)
        got = central_moment_first_order(ONE, prog, 30, 2)
        assert got == prime_power_sum(ONE, 2, 30, prog).value
        assert got == pytest.approx(0.370229, abs=1e-6)

    def test_sqrt_loglog_order_two(self):
        prog = Progression(4, 1)
        fn = PrimeFunction("sqrt_loglog")
        got = central_moment_first_order(fn, prog, 10**5, 2)
        p = mode_primes(prog, 10**5, "restricted")
        keep = p >= 3
        want = float(np.sum(np.log(np.log(p[keep].astype(float))) / p[keep]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            central_moment_first_order(ONE, FULL, 100, 1)


class TestSample:
    def test_trials_one_support(self):
        ss = sample(ONE, FULL, 10, trials=1, seed=7)
        assert ss.values.shape == (1,)
        assert ss.values[0] in {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_same_seed_identical(self):
        a = sample(ONE, Progression(4, 1), 10**4, 1000, seed=99)
        b = sample(ONE, Progression(4, 1), 10**4, 1000, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample(ONE, Progression(4, 1), 10**4, 1000, seed=1)
        b = sample(ONE, Progression(4, 1), 10**4, 1000, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_mean_within_tolerance(self):
        prog = Progression(4, 1)
        trials = 20_000
        ss = sample(ONE, prog, 10**5, trials, seed=5)
        mm = exact_moments(ONE, prog, 10**5, u_max=2)
        z = (ss.values.mean() - mm.kappa[1]) / math.sqrt(mm.kappa[2] / trials)
        assert abs(z) < 4.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sample(ONE, FULL, 10, trials=0, seed=0)


class TestLindeberg:
    def test_bounded_function_tail(self):
        # with the threshold above max|f| = 1 nothing survives the cut
        rep = lindeberg_check(ONE, FULL, 10**5, epsilon=1.0)
        assert rep.max_over_sqrt_d < 1.0
        assert rep.ratio == 0.0
        # a tiny epsilon keeps every prime in the tail sum
        rep2 = lindeberg_check(ONE, FULL, 10**5, epsilon=0.1)
        assert rep2.ratio == pytest.approx(1.0)

    def test_sqrt_loglog_diagnostics(self):
        fn = PrimeFunction("sqrt_loglog")
        rep = lindeberg_check(fn, Progression(1, 0), 10**6, epsilon=0.5)
        d = rep.variance
        want_max = math.sqrt(math.log(math.log(10**6 - 7))) / math.sqrt(d)
        assert rep.max_over_sqrt_d == pytest.approx(want_max, rel=1e-3)
        assert 0.0 <= rep.ratio <= 1.0

    def test_degenerate_below_start(self):
        fn = PrimeFunction("one_over_loglog")
        with pytest.raises(ValueError):
            lindeberg_check(fn, FULL, 9, epsilon=0.5)


class TestComparePair:
    def test_identity_pair_all_zero(self):
        pair = FunctionPair(builtin("omega"), builtin("omega"), "H")
        cmp = compare_pair(pair, Progression(4, 1), 10**4, u_max=4)
        assert cmp.mean_diff == 0.0
        assert all(v == 0.0 for v in cmp.mu_diff.values())

    def test_omega_vs_big_omega(self):
        pair = FunctionPair(builtin("omega"), builtin("big_omega"), "H")
        cmp = compare_pair(pair, Progression(4, 1), 10**5, u_max=3)
        # extra multiplicity only adds
        assert cmp.mean_diff > 0
        # both prediction modes reported
        assert set(cmp.predictions) == {"restricted", "density"}
        assert set(cmp.predictions_star) == {"restricted", "density"}
        # at primes the functions agree, so the first-moment predictions match
        assert cmp.predictions["restricted"] == cmp.predictions_star["restricted"]

    def test_restricted_vs_half_weight(self):
        prog = Progression(4, 1)
        pair = FunctionPair(builtin("omega1", prog), builtin("half_omega"), "V")
        cmp = compare_pair(pair, prog, 10**5, u_max=2)
        # both means are reported side by side; no equality is asserted
        assert cmp.summary_star.mean > 0
        assert cmp.summary.mean > 0
        assert cmp.override_contribution is None

    def test_override_contribution(self):
        base = builtin("omega")
        tweaked = (
            base[0],
            Extension("strong", overrides=(((3, 1), 2.0),)),
        )
        pair = FunctionPair(base, tweaked, "H")
        cmp = compare_pair(pair, Progression(4, 1), 10**4, u_max=2)
        # |2 - 1| * density of (3 exactly once) = (1/3)(1 - 1/3)
        assert cmp.override_contribution == pytest.approx(2.0 / 9.0, rel=1e-12)
        assert cmp.mean_diff > 0


class TestPredictions:
    def test_density_includes_all_coprime_primes(self):
        prog = Progression(4, 1)
        preds = mean_predictions(ONE, prog, 100)
        restricted = prime_power_sum(ONE, 1, 100, prog).value
        assert preds["restricted"] == pytest.approx(restricted, rel=1e-12)
        full = prime_power_sum(ONE, 1, 100, FULL).value
        assert preds["density"] == pytest.approx(full - 0.5, rel=1e-12)
