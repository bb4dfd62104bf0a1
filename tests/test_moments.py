import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments import arith_fn, cli
from apmoments.arith_fn import (
    STRONG,
    Extension,
    PrimeFunction,
    builtin,
    collect_values,
)
from apmoments.moments import (
    CoMoments,
    chebyshev_check,
    empirical_moments,
    lln_check,
    mean_via_counts,
    read_spill,
    two_pass_central_moments,
)
from apmoments.sieve import Progression

OMEGA, OMEGA_EXT = builtin("omega")
SQRTLOGLOG = PrimeFunction("sqrt_loglog")

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestCoMoments:
    @given(st.lists(finite_floats, min_size=2, max_size=200), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_chunked_matches_two_pass(self, data, chunk):
        values = np.array(data)
        acc = CoMoments(6)
        for i in range(0, len(values), chunk):
            acc.add_batch(values[i : i + chunk])
        oracle = two_pass_central_moments(values, 6)
        assert acc.mean == pytest.approx(float(values.mean()), rel=1e-9, abs=1e-9)
        scale = max(1.0, float(np.max(np.abs(values)))) ** 6
        for u in range(2, 7):
            assert acc.central_moments()[u] == pytest.approx(
                oracle[u], rel=1e-7, abs=1e-9 * scale
            )

    def test_rejects_silly_order(self):
        with pytest.raises(ValueError):
            CoMoments(1)
        with pytest.raises(ValueError):
            CoMoments(11)


class TestEmpiricalMoments:
    def test_omega_4_1_n30(self):
        s = empirical_moments(OMEGA, OMEGA_EXT, Progression(4, 1), 30, u_max=4)
        assert s.count == 8
        assert s.mean == pytest.approx(1.0, abs=1e-15)
        assert s.mu[2] == pytest.approx(0.25, abs=1e-15)

    def test_constant_zero_function(self):
        zero = PrimeFunction("constant", c=0.0)
        s = empirical_moments(zero, STRONG, Progression(4, 3), 1000, u_max=6)
        assert s.mean == 0.0
        assert all(v == 0.0 for v in s.mu.values())

    def test_omega_full_n10(self):
        # omega over 1..10: 0,1,1,1,1,2,1,1,1,2 (26 = 3^2 has one distinct prime)
        s = empirical_moments(OMEGA, OMEGA_EXT, Progression(1, 0), 10)
        assert s.mean == pytest.approx(1.1, abs=1e-15)

    def test_empty_progression_errors(self):
        with pytest.raises(ValueError):
            empirical_moments(OMEGA, OMEGA_EXT, Progression(7, 5), 4)

    def test_streaming_matches_two_pass_oracle(self):
        prog = Progression(3, 2)
        s = empirical_moments(SQRTLOGLOG, STRONG, prog, 10**5, u_max=6, block_members=4099)
        values = collect_values(SQRTLOGLOG, STRONG, prog, 10**5)
        oracle = two_pass_central_moments(values, 6)
        for u in range(2, 7):
            assert s.mu[u] == pytest.approx(oracle[u], rel=1e-9)

    def test_spill_roundtrip(self, tmp_path):
        path = tmp_path / "values.f64"
        s = empirical_moments(OMEGA, OMEGA_EXT, Progression(4, 1), 10**4, spill=path)
        spilled = read_spill(path)
        assert spilled.size == s.count
        direct = collect_values(OMEGA, OMEGA_EXT, Progression(4, 1), 10**4)
        assert np.array_equal(spilled, direct)

    def test_translation_invariance(self):
        # adding a constant to every value must leave central moments alone
        prog = Progression(4, 1)
        base = PrimeFunction("one_over_log")
        s0 = empirical_moments(base, STRONG, prog, 10**4, u_max=6)
        vals = collect_values(base, STRONG, prog, 10**4) + 3.0
        oracle = two_pass_central_moments(vals, 6)
        for u in range(2, 7):
            assert s0.mu[u] == pytest.approx(oracle[u], rel=1e-9, abs=1e-12)


class TestMeanViaCounts:
    def test_omega_4_1_n30(self):
        got = mean_via_counts(OMEGA, OMEGA_EXT, Progression(4, 1), 30)
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_omega_full_n10(self):
        # floor(10/2)+floor(10/3)+floor(10/5)+floor(10/7) = 5+3+2+1 = 11
        got = mean_via_counts(OMEGA, OMEGA_EXT, Progression(1, 0), 10)
        assert got == pytest.approx(1.1, abs=1e-15)
        emp = empirical_moments(OMEGA, OMEGA_EXT, Progression(1, 0), 10).mean
        assert got == pytest.approx(emp, abs=1e-15)

    def test_rejects_empty_progression(self):
        with pytest.raises(ValueError):
            mean_via_counts(OMEGA, OMEGA_EXT, Progression(9, 2), 1)

    def test_rejects_non_strong_extension(self):
        with pytest.raises(ValueError):
            mean_via_counts(OMEGA, Extension("complete"), Progression(1, 0), 100)
        with pytest.raises(ValueError):
            mean_via_counts(
                OMEGA, Extension("strong", overrides=(((2, 1), 0.5),)), Progression(1, 0), 100
            )

    def test_identity_brute_force_small(self):
        for k, l, n in [(1, 0, 400), (4, 3, 777), (12, 5, 1000), (9, 2, 300)]:
            prog = Progression(k, l)
            emp = empirical_moments(OMEGA, OMEGA_EXT, prog, n).mean
            cnt = mean_via_counts(OMEGA, OMEGA_EXT, prog, n)
            assert cnt == pytest.approx(emp, rel=1e-13)

    def test_identity_random_configs(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 25:
            k = int(rng.integers(1, 13))
            choices = [l for l in range(k) if math.gcd(k, l) == 1] if k > 1 else [0]
            l = int(rng.choice(choices))
            n = int(10 ** rng.uniform(2.5, 5.0))
            prog = Progression(k, l)
            if prog.count(n) < 2:
                continue
            checked += 1
            for fn in (OMEGA, SQRTLOGLOG):
                emp = empirical_moments(fn, STRONG, prog, n, u_max=2).mean
                cnt = mean_via_counts(fn, STRONG, prog, n)
                assert abs(emp - cnt) <= 1e-12 * max(1.0, abs(emp))


class TestChebyshev:
    def test_hand_dataset(self):
        prog = Progression(4, 1)
        s = empirical_moments(OMEGA, OMEGA_EXT, prog, 30)
        vals = collect_values(OMEGA, OMEGA_EXT, prog, 30)
        rep = chebyshev_check(s, vals, (1.0, 2.0))
        assert rep.bounds[0] == 0.0
        assert rep.coverage[1] == 1.0  # all 8 values within 2 sigma

    def test_degenerate_sigma(self):
        zero = PrimeFunction("constant", c=0.0)
        prog = Progression(4, 1)
        s = empirical_moments(zero, STRONG, prog, 100)
        rep = chebyshev_check(s, collect_values(zero, STRONG, prog, 100))
        assert rep.degenerate
        assert all(c == 1.0 for c in rep.coverage)

    def test_coverage_monotone_in_b(self):
        prog = Progression(4, 1)
        s = empirical_moments(OMEGA, OMEGA_EXT, prog, 10**5)
        vals = collect_values(OMEGA, OMEGA_EXT, prog, 10**5)
        rep = chebyshev_check(s, vals, (1.0, 1.5, 2.0, 3.0, 5.0))
        assert all(b >= a for a, b in zip(rep.coverage, rep.coverage[1:]))

    @given(st.lists(finite_floats, min_size=2, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_inequality_any_population(self, data):
        values = np.array(data)
        acc = CoMoments(2)
        acc.add_batch(values)
        from apmoments.moments import MomentSummary

        s = MomentSummary(0, Progression(1, 0), acc.n, acc.mean, acc.sigma, acc.central_moments())
        rep = chebyshev_check(s, values, (1.5, 2.0, 3.0))
        for cov, bound in zip(rep.coverage, rep.bounds):
            assert cov >= bound - 1e-12

    def test_spill_blocks_match_sweep(self, tmp_path):
        prog = Progression(4, 3)
        path = tmp_path / "values.f64"
        s = empirical_moments(SQRTLOGLOG, STRONG, prog, 10**5, spill=path)
        bs = (1.0, 1.5, 2.0, 3.0)
        sweep = collect_values(SQRTLOGLOG, STRONG, prog, 10**5, block_members=999)
        swept = chebyshev_check(s, sweep, bs)
        spilled = chebyshev_check(s, read_spill(path), bs)
        assert spilled.coverage == swept.coverage
        assert 0.0 < swept.coverage[0] < 1.0

    def test_mismatched_count_rejected(self):
        prog = Progression(4, 1)
        s = empirical_moments(OMEGA, OMEGA_EXT, prog, 30)
        with pytest.raises(ValueError):
            chebyshev_check(s, np.zeros(5), (2.0,))


class TestOneSweepPerDataset:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = arith_fn.iter_progression_values

        def counted(*args, **kwargs):
            calls.append(args[2])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(arith_fn, "iter_progression_values", counted)
        return calls

    def test_moments_subcommand_sweeps_once(self, sweeps, capsys):
        assert cli.main(["moments", "--mod", "4", "--res", "1", "--n", "1e4", "--fn", "omega"]) == 0
        assert sweeps == [10**4]

    def test_lln_check_sweeps_once_per_n(self, sweeps):
        lln_check(OMEGA, OMEGA_EXT, Progression(4, 1), [10**4, 10**5])
        assert sweeps == [10**4, 10**5]


class TestLln:
    def test_coverage_above_bound_at_scale(self):
        records = lln_check(OMEGA, OMEGA_EXT, Progression(4, 1), [10**4, 10**6])
        assert len(records) == 2
        for rec in records:
            assert rec.coverage_sqrt_mean is not None
            assert rec.coverage_sqrt_mean > rec.bound
            assert rec.coverage_sigma > rec.bound

    def test_degenerate_single_member(self):
        records = lln_check(OMEGA, OMEGA_EXT, Progression(10**4, 9973), [9973])
        assert records[0].coverage_sigma == 1.0

    def test_negative_mean_skips_sqrt_form(self):
        neg = PrimeFunction("constant", c=-1.0)
        records = lln_check(neg, STRONG, Progression(4, 1), [10**4])
        assert records[0].skipped
        assert records[0].coverage_sqrt_mean is None
