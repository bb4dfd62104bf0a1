import math
from fractions import Fraction

import numpy as np
import pytest

from apmoments import counting, model, prime_sums, sieve
from apmoments.arith_fn import PrimeFunction
from apmoments.config import PRIME_CHUNK
from apmoments.counting import MODES
from apmoments.model import (
    _cumulants_to_central,
    exact_moments,
    lindeberg_check,
    sample,
)
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression
from oracles import (
    BernoulliTerm,
    brute_force_central_moments,
    central_moment_first_order,
    distinct_slots_full_sort,
    distinct_slots_merge,
    poisson_binomial_pmf,
    sieve_primes,
)

ONE = PrimeFunction("constant", c=1.0)
FULL = Progression(1, 0)


def mean_predictions(fn, progression, n):
    """The model's mean prediction in each reading: prime_power_sum at u = 1."""
    return {mode: prime_power_sum(fn, 1, n, progression, mode).value for mode in MODES}


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
        primes = sieve_primes(29)  # first 10 primes
        terms = [BernoulliTerm(int(p), float(fn.values_at([int(p)])[0])) for p in primes]
        oracle = brute_force_central_moments(terms, 6)
        mm = exact_moments(fn, FULL, 29, u_max=6)
        for u in range(2, 7):
            assert mm.mu[u] == pytest.approx(oracle[u], rel=1e-10)

    def test_exact_variance_identity(self):
        prog = Progression(4, 1)
        mm = exact_moments(ONE, prog, 10**5, u_max=2)
        p = sieve_primes(10**5, prog).astype(np.float64)
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
        primes = sieve_primes(n, progression)
    else:
        primes = sieve_primes(n)
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
        primes = sieve_primes(n).tolist()
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

    def test_per_prime_recursion_matches_exact_cumulants(self):
        # c_j(q) of Bernoulli(q) at q = 1/p, against its integer polynomial
        # evaluated exactly in Fraction, for small and large primes
        u_max = 10
        polys = _bernoulli_cumulant_polys(u_max)
        primes = [2, 3, 5, 7, 97, 1009, 10007]
        q = 1.0 / np.array(primes, dtype=np.float64)
        c = model._bernoulli_cumulants(q, u_max)
        assert len(c) == u_max
        for i, p in enumerate(primes):
            for j in range(1, u_max + 1):
                exact = sum(coef * Fraction(1, p) ** k for k, coef in enumerate(polys[j]))
                assert abs(c[j - 1][i] - float(exact)) <= 1e-14 * q[i]

    def test_recursion_sees_only_blocks(self, monkeypatch):
        # density mode on 1 mod 4 up to 10^6 has 78497 active primes: two row blocks
        widths = []
        recursion = model._bernoulli_cumulants

        def recording(q, u_max):
            widths.append(q.size)
            return recursion(q, u_max)

        monkeypatch.setattr(model, "_bernoulli_cumulants", recording)
        mm = exact_moments(ONE, Progression(4, 1), 10**6, u_max=6, mode="density")
        assert max(widths) <= PRIME_CHUNK
        assert len(widths) == 2 and sum(widths) == mm.term_count

    def test_runs_without_a_materialized_prime_set(self, monkeypatch, sieve_geometry):
        fn, prog, n = PrimeFunction("sqrt_loglog"), Progression(4, 1), 10**5
        want = {mode: (exact_moments(fn, prog, n, u_max=6, mode=mode),
                       lindeberg_check(fn, prog, n, 0.5, mode=mode)) for mode in MODES}
        want_preds = mean_predictions(fn, prog, n)

        sieve_geometry(1 << 12, cache_max=0)  # small sieve segments, never the prime cache
        blocks = []

        def streamed(limit, progression, per_block):
            # the sizes come back with the results, from every part of a split pass
            sized = sieve.map_prime_blocks(limit, progression, lambda b: (b.size, per_block(b)))
            blocks.extend(size for size, _ in sized)
            return [result for _, result in sized]

        monkeypatch.setattr(model, "map_prime_blocks", streamed)
        monkeypatch.setattr(prime_sums, "map_prime_blocks", streamed)
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


class TestCountedRoute:
    """The model's passes count the primes past y where f is constant there."""

    @pytest.fixture
    def streamed(self, monkeypatch):
        """call(*args) with the counted route off: the reference recursion."""

        def run(call, *args):
            with monkeypatch.context() as m:
                m.setattr(counting, "pays", lambda x, k: False)
                return call(*args)

        return run

    @pytest.fixture
    def route(self, monkeypatch):
        """The tail_sums calls and the sieve limits of the model's passes."""
        seen = {"tails": [], "limits": []}
        tails, blocks = counting.tail_sums, model.map_prime_blocks

        def spy_tails(*args):
            seen["tails"].append(args)
            return tails(*args)

        def spy_blocks(limit, progression, per_block):
            seen["limits"].append(limit)
            return blocks(limit, progression, per_block)

        monkeypatch.setattr(counting, "tail_sums", spy_tails)
        monkeypatch.setattr(model, "map_prime_blocks", spy_blocks)
        return seen

    def test_coefficients_are_the_exact_polynomials(self):
        polys = _bernoulli_cumulant_polys(10)
        assert [list(model._COEFFICIENTS[j - 1]) for j in range(1, 11)] == [
            polys[j] for j in range(1, 11)]
        assert model._COEFFICIENTS[9][4] == -204_630  # the dropped-term bound's a_10,4

    @pytest.mark.parametrize("fn, n, k, r", [
        (ONE, 2 * 10**7, 4, 1), (ONE, 2 * 10**7, 4, 3), (ONE, 4 * 10**6, 1, 0),
        (PrimeFunction("constant", c=-1.5), 4 * 10**6, 1, 0), (TABULATED, 4 * 10**6, 1, 0),
    ], ids=["const1-2e7-1mod4", "const1-2e7-3mod4", "const1-4e6", "const-1.5-4e6", "tab-4e6"])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_streamed_recursion(self, fn, n, k, r, mode, streamed, route):
        prog = Progression(k, r)
        want = streamed(exact_moments, fn, prog, n, 10, mode)
        want_preds = streamed(mean_predictions, fn, prog, n)
        route["limits"].clear()
        got = exact_moments(fn, prog, n, 10, mode)
        y = n // (n // 10**6)
        assert route["tails"] == [(n, k, y, 3)] and route["limits"] == [y]
        assert got.term_count == want.term_count
        c = abs(fn.constant_above(y))
        for j in range(1, 11):
            if j <= 6:
                assert got.kappa[j] == pytest.approx(want.kappa[j], rel=1e-13)
                assert got.mu[j] == pytest.approx(want.mu[j], rel=1e-13)
            assert abs(got.kappa[j] - want.kappa[j]) <= 1e-11 * c**j
            assert got.first_order[j] == pytest.approx(want.first_order[j], rel=1e-14)
            assert got.gap_bound[j] == pytest.approx(want.gap_bound[j], rel=1e-14)
        preds = mean_predictions(fn, prog, n)
        for m in MODES:
            assert preds[m] == pytest.approx(want_preds[m], rel=1e-14)

    @pytest.mark.parametrize("fn, n, k, r", [
        (ONE, 2 * 10**7, 4, 1), (ONE, 4 * 10**6, 1, 0),
        (PrimeFunction("constant", c=-1.5), 4 * 10**6, 1, 0), (TABULATED, 4 * 10**6, 1, 0),
    ], ids=["const1-2e7-1mod4", "const1-4e6", "const-1.5-4e6", "tab-4e6"])
    @pytest.mark.parametrize("mode", MODES)
    def test_lindeberg_matches_the_sieved_route(self, fn, n, k, r, mode, streamed, route):
        # at epsilon 0.1 every prime is in the tail, at 1.0 none of the
        # constant's; at 0.5 and 1.0 the table's 2 and 7 are and its default
        # is not, so only there does a block straddle the threshold and take
        # a second pass
        prog, y = Progression(k, r), n // (n // 10**6)
        for epsilon in (0.1, 0.5, 1.0):
            want = streamed(lindeberg_check, fn, prog, n, epsilon, mode)
            route["tails"].clear()
            route["limits"].clear()
            got = lindeberg_check(fn, prog, n, epsilon, mode)
            passes = [y, y] if fn is TABULATED and epsilon > 0.1 else [y]
            assert route["tails"] == [(n, k, y, 1)] and route["limits"] == passes
            assert got.variance == pytest.approx(want.variance, rel=1e-14)
            assert got.ratio == pytest.approx(want.ratio, rel=1e-14)
            assert got.max_over_sqrt_d == pytest.approx(want.max_over_sqrt_d, rel=1e-14)

    def test_density_reads_the_restricted_memo(self, monkeypatch):
        builds, build = [], counting.class_tables

        def spy(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(counting, "class_tables", spy)
        for mode in MODES:
            exact_moments(ONE, Progression(4, 1), 2 * 10**7, 6, mode)
        mean_predictions(ONE, Progression(4, 3), 2 * 10**7)
        assert builds == [(2 * 10**7, 4, 3)]


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
        p = sieve_primes(10**5, prog)
        keep = p >= 3
        want = float(np.sum(np.log(np.log(p[keep].astype(float))) / p[keep]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            central_moment_first_order(ONE, FULL, 100, 1)


class _CountingRng:
    """A seeded generator that counts its integers calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


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

    def test_histogram_matches_poisson_binomial_law(self):
        # const:1 counts the primes a trial hits: its exact law is the
        # Poisson-binomial PMF of the 11 primes 1 mod 4 below 100
        prog, trials = Progression(4, 1), 10**5
        pmf = poisson_binomial_pmf(1.0 / sieve_primes(100, prog))
        ss = sample(ONE, prog, 100, trials, seed=1)
        hist = np.bincount(ss.values.astype(np.int64), minlength=pmf.size) / trials
        assert hist.size == pmf.size
        # E|hist_k - pmf_k| <= sqrt(pmf_k (1 - pmf_k) / trials); slots drawn
        # without the redraw of repeats give about 0.03
        expected = 0.5 * float(np.sum(np.sqrt(pmf * (1.0 - pmf) / trials)))
        assert 0.5 * float(np.sum(np.abs(hist - pmf))) <= 2.0 * expected < 0.01

    def test_no_prime_twice_in_a_trial(self):
        # f(p_i) = 4^i: a trial's value has base-4 digit i equal to the
        # number of times p_i hit it.  2e5 trials put about 3.9e5 successes
        # into several pieces, and p = 2 alone (about 1e5) into a piece
        # larger than PRIME_CHUNK.
        primes = sieve_primes(37).tolist()
        tab = PrimeFunction("tabulated", table=tuple((p, 4.0**i) for i, p in enumerate(primes)))
        trials = 2 * 10**5
        values = sample(tab, FULL, 37, trials, seed=3).values.astype(np.int64)
        for i, p in enumerate(primes):
            digit = (values >> (2 * i)) & 3
            assert digit.max() <= 1
            q = 1.0 / p
            assert abs(digit.mean() - q) <= 5.0 * math.sqrt(q * (1.0 - q) / trials)
        assert np.all(values >> (2 * len(primes)) == 0)

    def test_slot_merge_matches_full_sort(self):
        # owners taking a half, a third and a fifth of the slots need many
        # redraw rounds; merging only the redrawn keys back must give the
        # same slots from the same draws as sorting every key each round
        trials = 10**4
        owner = np.repeat(np.arange(3), [trials // 2, trials // 3, trials // 5])
        merged, full = _CountingRng(5), _CountingRng(5)
        got = model._distinct_slots(owner, trials, merged)
        want = distinct_slots_full_sort(owner, trials, full)
        assert full.calls >= 10
        assert np.array_equal(got, want) and merged.calls == full.calls
        assert merged.rng.bit_generator.state == full.rng.bit_generator.state
        for o in range(3):
            assert np.unique(got[owner == o]).size == np.count_nonzero(owner == o)

    @pytest.mark.parametrize("counts", [
        [5 * 10**4], [10**4], [10**4, 4 * 10**3, 3 * 10**3], [3, 1, 4, 1, 5, 9, 2, 6],
    ], ids=["half", "tenth", "three_owners", "sparse"])
    def test_taken_table_matches_the_merge(self, counts):
        # a dense piece (a half or a tenth of the slots, or a few owners)
        # tracks its taken keys in a table; the draws and slots are the merge's
        trials = 10**5
        owner = np.repeat(np.arange(len(counts)), counts)
        table, merge = _CountingRng(9), _CountingRng(9)
        got = model._distinct_slots(owner, trials, table)
        want = distinct_slots_merge(owner, trials, merge)
        assert np.array_equal(got, want) and table.calls == merge.calls
        assert table.rng.bit_generator.state == merge.rng.bit_generator.state

    def test_sample_bit_identical_with_full_sort(self, monkeypatch):
        # p = 2 takes about 1e5 of 2e5 trials: a piece above PRIME_CHUNK
        a = sample(ONE, FULL, 1000, 2 * 10**5, seed=4).values
        monkeypatch.setattr(model, "_distinct_slots", distinct_slots_full_sort)
        b = sample(ONE, FULL, 1000, 2 * 10**5, seed=4).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_density_mode_with_two_terminates(self, trials):
        # p = 2 can take every slot; the redraw must still end
        for seed in range(20):
            ss = sample(ONE, Progression(3, 1), 30, trials, seed=seed, mode="density")
            assert ss.values.shape == (trials,)
            assert np.all((ss.values >= 0) & (ss.values <= 9))

    def test_streams_prime_blocks(self, monkeypatch, sieve_geometry):
        # the streamed sieve hands the full set below 2e6 (148933 primes)
        # to the sampler in blocks, never as one array
        n, trials = 2 * 10**6, 10**4
        mm = exact_moments(ONE, FULL, n, u_max=2)

        sieve_geometry(cache_max=0)
        seen = []
        blocks = model._active_blocks

        def recording(*args):
            for p, f in blocks(*args):
                seen.append(p.size)
                yield p, f

        monkeypatch.setattr(model, "_active_blocks", recording)
        values = sample(ONE, FULL, n, trials, seed=11).values
        assert len(seen) >= 3 and max(seen) <= PRIME_CHUNK and sum(seen) == mm.term_count
        z = (values.mean() - mm.kappa[1]) / math.sqrt(mm.kappa[2] / trials)
        assert abs(z) < 4.0


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


class TestPredictions:
    def test_density_includes_all_coprime_primes(self):
        prog = Progression(4, 1)
        preds = mean_predictions(ONE, prog, 100)
        restricted = prime_power_sum(ONE, 1, 100, prog).value
        assert preds["restricted"] == pytest.approx(restricted, rel=1e-12)
        full = prime_power_sum(ONE, 1, 100, FULL).value
        assert preds["density"] == pytest.approx(full - 0.5, rel=1e-12)
