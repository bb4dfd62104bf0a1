import json
import math
import os
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments import arith_fn, cli, counting, moments, stats
from apmoments.arith_fn import (
    STRONG,
    Extension,
    PrimeFunction,
    resolve_spec,
)
from apmoments.config import MEMBER_BLOCK
from apmoments.moments import (
    CoMoments,
    SpillFile,
    chebyshev_check,
    collect_datasets,
    compare_pair,
    iter_blocks,
    spill_dataset,
    summarize,
)
from apmoments.sieve import Progression, factorize
from apmoments.stats import erdos_kac_report
from oracles import (
    collect_values,
    empirical_moments,
    mean_via_counts,
    no_child_left,
    two_pass_central_moments,
)

OMEGA, OMEGA_EXT = resolve_spec("omega")


def read_whole(path):
    return np.fromfile(path, dtype="<f8")
SQRTLOGLOG = PrimeFunction("sqrt_loglog")
SQRTLOGLOG_SPEC = (SQRTLOGLOG, STRONG)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def collect(fn, ext, prog, n, spill=None):
    """(x, counts) of one spec's dataset."""
    (data,) = collect_datasets([(fn, ext)], prog, n, spill=spill)
    return data.x, data.counts


def summary_of(values, prog, n, u_max, counts=None):
    """The summary of a dataset (values, counts), fed in its blocks."""
    acc = CoMoments(u_max)
    for block, weights in iter_blocks(values, counts):
        acc.add_batch(block, weights)
    return summarize(acc, prog, n)


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

    @pytest.mark.parametrize("block", [997, 1])
    def test_ragged_pieces_match_single_pass(self, member_block, block):
        # pieces of 125 and of 1 value, the last one short, with and without counts
        member_block(block)
        rng = np.random.default_rng(7)
        values, weights = rng.standard_normal(2000) * 3 + 1, rng.integers(1, 5, 2000)
        for counts in (None, weights):
            acc = CoMoments(6)
            acc.add_batch(values, counts)
            w = np.ones_like(values) if counts is None else weights.astype(np.float64)
            d = values - float((w * values).sum()) / w.sum()
            assert acc.n == w.sum()
            for j in range(2, 7):
                assert acc.m[j] == pytest.approx(float((w * d**j).sum()), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("block", [1024, MEMBER_BLOCK])
    def test_full_block_of_eight_pieces_is_one_pass_bit_for_bit(self, member_block, block):
        # eight pieces of a multiple of 8 values past 64 split where numpy's
        # pairwise sum over the whole block splits
        member_block(block)
        values = np.random.default_rng(block).standard_normal(block) ** 3
        acc = CoMoments(6)
        acc.add_batch(values)
        d = values - values.mean()
        power = d * d
        for j in range(2, 7):
            assert acc.m[j] == float(power.sum())
            power *= d

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

    def test_streaming_matches_two_pass_oracle(self, member_block):
        prog = Progression(3, 2)
        member_block(4099)
        s = empirical_moments(SQRTLOGLOG, STRONG, prog, 10**5, u_max=6)
        member_block()
        values = collect_values(SQRTLOGLOG, STRONG, prog, 10**5)
        oracle = two_pass_central_moments(values, 6)
        for u in range(2, 7):
            assert s.mu[u] == pytest.approx(oracle[u], rel=1e-9)

    def test_spill_roundtrip(self, tmp_path):
        path = tmp_path / "values.f64"
        s = empirical_moments(OMEGA, OMEGA_EXT, Progression(4, 1), 10**4, spill=path)
        spilled = read_whole(path)
        assert spilled.size == s.count
        direct = collect_values(OMEGA, OMEGA_EXT, Progression(4, 1), 10**4)
        assert np.array_equal(spilled, direct)

    def test_no_spill_when_the_sweep_fails_after_a_block(self, tmp_path, monkeypatch,
                                                          member_block):
        # the table covers every prime <= sqrt(100); 11, the first prime above,
        # sits in the third block of four members, so two blocks are written
        # to the spill before the lookup fails
        sweep, blocks = arith_fn.iter_progression_values, []

        def counted(*args, **kwargs):
            for item in sweep(*args, **kwargs):
                blocks.append(item[0].size)
                yield item

        monkeypatch.setattr(arith_fn, "iter_progression_values", counted)
        member_block(4)
        fn, ext = arith_fn.resolve_spec("tab:2=1,3=1,5=1,7=1")
        with pytest.raises(arith_fn.TabulatedLookupError):
            empirical_moments(fn, ext, Progression(1, 0), 100, spill=tmp_path / "values.f64")
        assert blocks == [4, 4]
        assert list(tmp_path.iterdir()) == []

    def test_spill_is_written_and_read_in_sweep_blocks(self, tmp_path, member_block):
        # several blocks through the file, against the same blocks in memory
        prog, n = Progression(3, 2), 10**5
        member_block(4099)
        path = tmp_path / "values.f64"
        spilled = empirical_moments(SQRTLOGLOG, STRONG, prog, n, spill=path)
        swept = empirical_moments(SQRTLOGLOG, STRONG, prog, n)
        assert spilled == swept
        assert np.array_equal(read_whole(path), collect_values(SQRTLOGLOG, STRONG, prog, n))

    def test_lattice_spill_is_not_read_back(self, tmp_path, monkeypatch, capsys):
        # the table is folded from the sweep's blocks as they are written
        argv = ["moments", "--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e5"]
        assert cli.main(argv) == 0
        swept = json.loads(capsys.readouterr().out)

        def refuse(self, part):
            raise AssertionError("spill file read back")

        monkeypatch.setattr(SpillFile, "__getitem__", refuse)
        path = tmp_path / "values.f64"
        assert cli.main([*argv, "--spill", str(path)]) == 0
        spilled = json.loads(capsys.readouterr().out)
        assert spilled.pop("config")["spill"] == str(path)
        swept.pop("config")
        assert spilled == swept
        assert np.array_equal(read_whole(path),
                              collect_values(OMEGA, OMEGA_EXT, Progression(4, 1), 10**5))

    def test_non_lattice_spill_is_read_once(self, tmp_path, monkeypatch, capsys, member_block):
        # the moments come from the sweep's blocks as they are written; only
        # the Chebyshev coverage reads the file, in one pass
        member_block(4099)
        path = tmp_path / "values.f64"
        argv = ["moments", "--fn", "sqrtloglog", "--mod", "3", "--res", "2", "--n", "1e5"]
        reads = []
        read = SpillFile.__getitem__

        def counted(self, part):
            reads.append(part.indices(self.size))
            return read(self, part)

        monkeypatch.setattr(SpillFile, "__getitem__", counted)
        assert cli.main([*argv, "--spill", str(path)]) == 0
        spilled = capsys.readouterr().out
        prog, n = Progression(3, 2), 10**5
        blocks = -(-prog.count(n) // 4099)
        assert len(reads) == blocks and len(set(reads)) == blocks
        # the moments as the file read back gives them, bit for bit
        want = summary_of(SpillFile(path, prog.count(n)), prog, n, 6)
        assert empirical_moments(SQRTLOGLOG, STRONG, prog, n, spill=path) == want
        # and the same report bytes as without the spill, but for its name
        assert cli.main(argv) == 0
        swept = capsys.readouterr().out
        assert spilled.replace(f'"spill": "{path}"', '"spill": null') == swept

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

    @pytest.mark.parametrize("k", [1_000_003, 5_000_000_000, 9 * 10**19 + 1])
    def test_moduli_past_an_inverse_table(self, k):
        # an inverse table over all of range(k) took 1.4 s at k = 1,000,003,
        # and a k past int64 overflowed it; 1,000,003 keeps two members
        n = 1_100_000
        for l in (1, 4999, 51051):
            if math.gcd(k, l) != 1:
                continue
            prog = Progression(k, l)
            want = collect_values(OMEGA, OMEGA_EXT, prog, n).mean()
            assert mean_via_counts(OMEGA, OMEGA_EXT, prog, n) == want, (k, l)

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

    def test_spill_blocks_match_sweep(self, tmp_path, member_block):
        prog = Progression(4, 3)
        path = tmp_path / "values.f64"
        s = empirical_moments(SQRTLOGLOG, STRONG, prog, 10**5, spill=path)
        bs = (1.0, 1.5, 2.0, 3.0)
        member_block(999)
        sweep = collect_values(SQRTLOGLOG, STRONG, prog, 10**5)
        swept = chebyshev_check(s, sweep, bs)
        spilled = chebyshev_check(s, read_whole(path), bs)
        assert spilled.coverage == swept.coverage
        assert 0.0 < swept.coverage[0] < 1.0

    def test_mismatched_count_rejected(self):
        prog = Progression(4, 1)
        s = empirical_moments(OMEGA, OMEGA_EXT, prog, 30)
        with pytest.raises(ValueError):
            chebyshev_check(s, np.zeros(5), (2.0,))


class TestOneTableBuildPerDataset:
    """Each dataset builds its increment table once; the lattice decision
    and the sweep share it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = arith_fn.increment_table

        def counted(specs, progression, n):
            calls.append(n)
            return build(specs, progression, n)

        monkeypatch.setattr(arith_fn, "increment_table", counted)
        return calls

    @pytest.mark.parametrize("text", ["omega", "sqrtloglog"])
    def test_moments_and_ektest_build_once(self, builds, text):
        fn, ext = _spec(text)
        prog, n = Progression(4, 1), 10**4
        empirical_moments(fn, ext, prog, n)
        assert builds == [n]
        erdos_kac_report(fn, ext, prog, 2 * n, "sigma")
        assert builds == [n, 2 * n]

    def test_spill_read_builds_once(self, builds, tmp_path):
        path = tmp_path / "values.f64"
        prog, n = Progression(4, 1), 10**4
        empirical_moments(OMEGA, OMEGA_EXT, prog, n, spill=path)
        erdos_kac_report(OMEGA, OMEGA_EXT, prog, n, spill=path)
        assert builds == [n, n]

    def test_compare_builds_once_for_both_sides(self, builds):
        compare_pair(_spec("omega"), _spec("sqrtloglog"), Progression(4, 1), 10**4)
        assert builds == [10**4]


class TestComparePair:
    def test_identity_pair_all_zero(self):
        cmp = compare_pair(resolve_spec("omega"), resolve_spec("omega"), Progression(4, 1), 10**4,
                           u_max=4)
        assert cmp.mean_diff == 0.0
        assert all(v == 0.0 for v in cmp.mu_diff.values())

    def test_omega_vs_big_omega(self):
        cmp = compare_pair(resolve_spec("omega"), resolve_spec("big_omega"), Progression(4, 1),
                           10**5, u_max=3)
        # extra multiplicity only adds
        assert cmp.mean_diff > 0
        assert cmp.override_contribution is None

    def test_restricted_vs_half_weight(self):
        prog = Progression(4, 1)
        cmp = compare_pair(resolve_spec("omega1", prog), resolve_spec("half_omega"), prog, 10**5,
                           u_max=2)
        # both means are reported side by side; no equality is asserted
        assert cmp.summary_star.mean > 0
        assert cmp.summary.mean > 0
        assert cmp.override_contribution is None

    @pytest.mark.parametrize("side", ["f", "f_star"])
    def test_override_contribution(self, side):
        # reported whenever either side has overrides
        base = resolve_spec("omega")
        tweaked = (base[0], Extension("strong", overrides=(((3, 1), 2.0),)))
        pair = (base, tweaked) if side == "f" else (tweaked, base)
        cmp = compare_pair(*pair, Progression(4, 1), 10**4, u_max=2)
        # |2 - 1| * density of (3 exactly once) = (1/3)(1 - 1/3)
        assert cmp.override_contribution == pytest.approx(2.0 / 9.0, rel=1e-12)
        assert (cmp.mean_diff > 0) == (side == "f")

    @pytest.mark.parametrize(
        "star,f", [("omega", "bigomega"), ("omega", "sqrtloglog"), ("invloglog", "half_omega")]
    )
    def test_each_side_matches_its_own_dataset(self, star, f, member_block):
        # a lattice side reads its value/count table, any other side its
        # per-member blocks: each summary equals that side's moments alone
        from apmoments.arith_fn import increment_table, lattice_steps

        prog, n = Progression(4, 1), 10**5
        sides = [resolve_spec(star), resolve_spec(f)]
        member_block(4099)
        cmp = compare_pair(*sides, prog, n, u_max=6)
        member_block()
        steps = lattice_steps(sides, increment_table(sides, prog, n), n)
        assert steps != [None, None]
        for side, got, step in zip(sides, (cmp.summary_star, cmp.summary), steps):
            want = empirical_moments(*side, prog, n, u_max=6)
            assert got.count == want.count
            assert got.mean == pytest.approx(want.mean, rel=1e-14)
            for u in range(2, 7):
                assert got.mu[u] == pytest.approx(want.mu[u], rel=1e-12)
            if step is not None:
                assert got == want  # the same table, read the same way


def _spec(text, p0=None):
    return arith_fn.resolve_spec(text, Progression(4, 1), p0=p0)


def _step(fn, ext, prog, n):
    specs = [(fn, ext)]
    return arith_fn.lattice_steps(specs, arith_fn.increment_table(specs, prog, n), n)[0]


LATTICE_SPECS = [
    ("omega", None, 1.0),
    ("bigomega", None, 1.0),
    ("half_omega", None, 0.5),
    ("const:2.5", 101, 2.5),
    ("tab:5=1,7=2,default=0.5", None, 0.5),
    ("tab:5=-1,7=2,default=0.5", None, 0.5),
    ("scaled:-1.5:one", None, 1.5),
    ("scaled:-1:one", None, 1.0),
    ("tab:5=100,default=1", None, 1.0),  # needs an int16 column
]


class TestLatticeTable:
    """Lattice datasets as a value/count table, against the per-member array."""

    @pytest.mark.parametrize("text,p0,step", LATTICE_SPECS, ids=[s[0] for s in LATTICE_SPECS])
    def test_table_equals_unique_of_values(self, text, p0, step, member_block):
        fn, ext = _spec(text, p0)
        prog, n = Progression(4, 1), 10**5
        assert _step(fn, ext, prog, n) == step
        member_block(257)
        x, counts = collect(fn, ext, prog, n)
        member_block()
        want_x, want_counts = np.unique(collect_values(fn, ext, prog, n), return_counts=True)
        assert np.array_equal(x, want_x) and np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("text", ["omega", "bigomega", "half_omega"])
    def test_moments_match_exact_rational_evaluation(self, text):
        fn, ext = _spec(text)
        prog, n = Progression(4, 1), 10**5
        weight = Fraction(1, 2) if text == "half_omega" else Fraction(1)
        per_member = Counter()
        for m in range(prog.first_member, n + 1, prog.modulus):
            fac = factorize(m)
            per_member[weight * sum(a if text == "bigomega" else 1 for _, a in fac)] += 1
        count = sum(per_member.values())
        mean = sum(v * c for v, c in per_member.items()) / count
        s = empirical_moments(fn, ext, prog, n, u_max=6)
        assert collect(fn, ext, prog, n)[1] is not None  # the table path ran
        assert s.count == count
        assert s.mean == pytest.approx(float(mean), rel=1e-14)
        for u in range(2, 7):
            mu = sum(c * (v - mean) ** u for v, c in per_member.items()) / count
            assert s.mu[u] == pytest.approx(float(mu), rel=1e-14)

    def test_complete_rule_of_a_fraction_folds_onto_the_lattice(self, member_block):
        # a*0.1 - (a-1)*0.1 rounds away from 0.1 (3*0.1 - 2*0.1 is
        # 0.10000000000000003); the complete rule's increment is f(p) itself
        fn, ext = arith_fn.resolve_spec("const:0.1", mode="complete")
        prog, n = Progression(4, 1), 10**5
        assert _step(fn, ext, prog, n) == 0.1
        member_block(4099)
        x, counts = collect(fn, ext, prog, n)
        member_block()
        assert counts is not None
        table = summary_of(x, prog, n, 6, counts)
        array = summary_of(collect_values(fn, ext, prog, n), prog, n, 6)
        assert table.count == array.count
        assert table.mean == pytest.approx(array.mean, rel=1e-12)
        for u in range(2, 7):
            assert table.mu[u] == pytest.approx(array.mu[u], rel=1e-12)
        assert erdos_kac_report(fn, ext, prog, n).ks_lattice is not None

    def test_block_merge_spans_negative_and_positive_indices(self):
        table = arith_fn.LatticeCounts(0.5)
        for block in ([2, 3], [-4, -4], [0], [6, -4]):
            table.merge(table.batch(np.array(block, dtype=np.int8)))
        x, counts = table.table()
        assert x.tolist() == [-2.0, 0.0, 1.0, 1.5, 3.0]
        assert counts.tolist() == [3, 1, 1, 1, 1]

    def test_negative_fractional_step(self, member_block):
        # -0.7 summed in float64 need not be k * 0.7 exactly; the table holds
        # k * 0.7 for the indices the float sums round to
        fn, ext = _spec("const:-0.7")
        prog, n = Progression(4, 1), 10**5
        assert _step(fn, ext, prog, n) == 0.7
        member_block(4099)
        x, counts = collect(fn, ext, prog, n)
        member_block()
        k, want_counts = np.unique(np.rint(collect_values(fn, ext, prog, n) / 0.7),
                                   return_counts=True)
        assert k.max() == 0
        assert np.array_equal(x, k * 0.7) and np.array_equal(counts, want_counts)

    def test_int8_block_fold_does_not_wrap(self):
        # -100 and 100 are 200 apart, past int8
        table = arith_fn.LatticeCounts(1.0)
        table.merge(table.batch(np.array([100, -100, 100], dtype=np.int8)))
        x, counts = table.table()
        assert x.tolist() == [-100.0, 100.0] and counts.tolist() == [1, 2]

    @pytest.mark.parametrize("fold", ["sweep", "spill"])
    def test_int16_table_equals_unique_of_values(self, fold, tmp_path):
        fn, ext = _spec("tab:5=125,default=1")  # values past int8
        prog, n = Progression(4, 1), 10**5
        path = tmp_path / "values.f64"
        x, counts = collect(fn, ext, prog, n, spill=path)
        if fold == "spill":
            data = spill_dataset(path, fn, ext, prog, n)
            x, counts = data.x, data.counts
        values = collect_values(fn, ext, prog, n)
        assert np.array_equal(read_whole(path), values)
        want_x, want_counts = np.unique(values, return_counts=True)
        assert want_x.max() > 127
        assert np.array_equal(x, want_x) and np.array_equal(counts, want_counts)

    def test_mixed_pair_sides_equal_their_own_datasets(self, member_block):
        # omega (an integer column) against invloglog (a float64 column) in
        # one sweep: each side's summary is its own dataset's, bit for bit
        prog, n = Progression(4, 1), 10**5
        omega, invloglog = (OMEGA, OMEGA_EXT), arith_fn.resolve_spec("invloglog")
        member_block(4099)
        cmp = compare_pair(omega, invloglog, prog, n, 6)
        assert cmp.summary_star == empirical_moments(*omega, prog, n, 6)
        assert cmp.summary == empirical_moments(*invloglog, prog, n, 6)

    @pytest.mark.parametrize(
        "text", ["sqrtloglog", "invloglog", "omega1", "const:0", "tab:5=0.7,default=0.5",
                 "override"])
    def test_non_lattice_specs_stay_on_the_array_path(self, text):
        # the last two are constant above sqrt(n), but 0.7 and an override
        # worth 0.25 are not multiples of that constant
        if text == "override":
            fn, ext = OMEGA, Extension("strong", overrides=(((3, 1), 0.25),))
        else:
            fn, ext = _spec(text)
        prog, n = Progression(4, 1), 10**5
        assert _step(fn, ext, prog, n) is None
        values = collect_values(fn, ext, prog, n)
        x, counts = collect(fn, ext, prog, n)
        assert counts is None and np.array_equal(x, values)
        # the per-member path as it was before weights: blocks of MEMBER_BLOCK,
        # each reduced by unweighted sums and merged into one state
        acc = CoMoments(6)
        for lo in range(0, values.size, MEMBER_BLOCK):
            block = values[lo : lo + MEMBER_BLOCK]
            bmean = float(block.mean())
            d = block - bmean
            bm, power = np.zeros(7), d * d
            for j in range(2, 7):
                bm[j] = float(power.sum())
                power = power * d
            acc.merge((block.size, bmean, bm, float(block.min()), float(block.max())))
        s = empirical_moments(fn, ext, prog, n, u_max=6)
        assert (s.count, s.mean, s.sigma) == (acc.n, acc.mean, acc.sigma)
        assert s.mu == acc.central_moments()

    def test_weighted_batch_equals_repeated_values(self):
        x = np.array([-1.0, 0.5, 2.0, 7.0])
        counts = np.array([3, 1, 4, 2])
        weighted, repeated = CoMoments(6), CoMoments(6)
        weighted.add_batch(x, counts)
        repeated.add_batch(np.repeat(x, counts))
        assert weighted.n == repeated.n == 10
        assert weighted.mean == pytest.approx(repeated.mean, rel=1e-15)
        for u, mu in repeated.central_moments().items():
            assert weighted.central_moments()[u] == pytest.approx(mu, rel=1e-14)

    def test_weighted_coverage_equals_per_member_coverage(self):
        prog, n = Progression(4, 3), 10**5
        s = empirical_moments(OMEGA, OMEGA_EXT, prog, n)
        x, counts = collect(OMEGA, OMEGA_EXT, prog, n)
        bs = (1.0, 1.5, 2.0, 3.0)
        per_member = chebyshev_check(s, collect_values(OMEGA, OMEGA_EXT, prog, n), bs)
        assert chebyshev_check(s, x, bs, counts).coverage == per_member.coverage


class TestNoPerMemberArray:
    """Lattice subcommands, and compare and empirical_moments on any spec,
    never build one float64 per member."""

    @pytest.fixture
    def no_arrays(self, monkeypatch):
        """Refuse the collector's per-member array (np.frombuffer on a shared
        mapping), and any np.empty."""

        def refuse(*args, **kwargs):
            raise AssertionError("per-member array built")

        class Numpy:
            empty = frombuffer = staticmethod(refuse)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(moments, "np", Numpy())

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--fn", "omega"],
            ["moments", "--fn", "bigomega", "--umax", "6"],
            ["ektest", "--fn", "omega"],
            ["ektest", "--fn", "bigomega", "--norm", "sigma"],
            ["compare", "--fn-star", "omega", "--fn", "bigomega", "--class", "H"],
            ["compare", "--fn-star", "sqrtloglog", "--fn", "invloglog"],
        ],
        ids=["moments_omega", "moments_bigomega", "ektest_omega", "ektest_bigomega", "compare",
             "compare_off_the_lattice"],
    )
    def test_subcommand_runs_without_collect_values(self, no_arrays, argv, capsys):
        assert cli.main([*argv, "--mod", "4", "--res", "1", "--n", "1e5"]) == 0

    def test_empirical_moments_off_the_lattice(self, no_arrays):
        assert empirical_moments(SQRTLOGLOG, STRONG, Progression(4, 1), 10**5).count == 25000

    def test_the_guard_sees_a_kept_array(self, no_arrays, capsys):
        # moments keeps the values of a spec off the lattice for its coverage
        with pytest.raises(AssertionError, match="per-member array built"):
            cli.main(["moments", "--fn", "sqrtloglog", "--mod", "4", "--res", "1", "--n", "1e5"])

    def test_spill_still_writes_one_float64_per_member(self, tmp_path, capsys):
        spill = tmp_path / "values.f64"
        argv = ["moments", "--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e5"]
        assert cli.main([*argv, "--spill", str(spill)]) == 0
        with_spill = json.loads(capsys.readouterr().out)
        assert spill.stat().st_size == with_spill["count"] * 8
        assert np.array_equal(read_whole(spill),
                              collect_values(OMEGA, OMEGA_EXT, Progression(4, 1), 10**5))
        assert cli.main(argv) == 0
        without = json.loads(capsys.readouterr().out)
        for key in ("count", "mean", "sigma", "mu", "coverage"):
            assert with_spill[key] == without[key]


# Every spec counting serves: (text, mode); one constant c != 0 on every prime.
COUNTED_SPECS = [
    ("omega", None), ("bigomega", None), ("half_omega", None), ("one", None),
    ("const:-1.5", "strong"), ("const:-1.5", "complete"), ("const:2", "complete"),
]
COUNTED_CLASSES = [(1, 0), (2, 1), (3, 2), (4, 1), (4, 3), (5, 3), (7, 1), (12, 7)]


@pytest.fixture
def routes(monkeypatch):
    """The n of every member sweep, in call order, and of every joint law
    counted (under "law")."""
    calls = {"sweep": [], "law": []}
    sweep, law = arith_fn.iter_progression_values, counting.omega_law

    def spy_sweep(*args, **kwargs):
        calls["sweep"].append(args[2])
        return sweep(*args, **kwargs)

    def spy_law(n, k, r):
        calls["law"].append(n)
        return law(n, k, r)

    monkeypatch.setattr(arith_fn, "iter_progression_values", spy_sweep)
    monkeypatch.setattr(counting, "omega_law", spy_law)
    return calls


def _pays(monkeypatch, answer):
    monkeypatch.setattr(counting, "pays", lambda n, k: answer)


class TestCountedTables:
    """A spec constant on every prime takes its table from the joint law of
    omega and Omega; it equals the sweep's, arrays and dtypes."""

    @pytest.mark.parametrize("k, r", COUNTED_CLASSES)
    @pytest.mark.parametrize("text, mode", COUNTED_SPECS)
    def test_equals_the_sweep(self, text, mode, k, r, routes, monkeypatch):
        prog = Progression(k, r)
        fn, ext = arith_fn.resolve_spec(text, prog, mode=mode)
        for n in (10**4, 1369, 2883, 99_991, 10**6 + 7):
            _pays(monkeypatch, False)
            swept = collect(fn, ext, prog, n)
            _pays(monkeypatch, True)
            counted = collect(fn, ext, prog, n)
            for a, b in zip(counted, swept):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, k, r)
        assert routes["sweep"] == routes["law"] == [10**4, 1369, 2883, 99_991, 10**6 + 7]

    @pytest.mark.parametrize("k, r", [(1, 0), (4, 3), (5, 3), (12, 7)])
    @pytest.mark.parametrize("star, f", [
        (("omega", None), ("bigomega", None)),
        (("const:-1.5", "strong"), ("const:2", "complete")),
    ])
    def test_compare_equals_the_sweep(self, star, f, k, r, routes, monkeypatch):
        prog = Progression(k, r)
        pair = (arith_fn.resolve_spec(star[0], prog, mode=star[1]),
                arith_fn.resolve_spec(f[0], prog, mode=f[1]))
        _pays(monkeypatch, False)
        swept = compare_pair(*pair, prog, 99_991)
        _pays(monkeypatch, True)
        assert compare_pair(*pair, prog, 99_991) == swept
        assert routes["sweep"] == routes["law"] == [99_991]  # one law serves both sides

    @pytest.mark.parametrize("r", [1, 3])
    def test_the_rule_counts_at_3e7(self, r, routes, monkeypatch):
        prog, n = Progression(4, r), 3 * 10**7
        for text in ("omega", "bigomega"):
            fn, ext = arith_fn.resolve_spec(text)
            counted = collect(fn, ext, prog, n)
            with monkeypatch.context() as m:
                _pays(m, False)
                swept = collect(fn, ext, prog, n)
            for a, b in zip(counted, swept):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert routes == {"sweep": [n, n], "law": [n, n]}

    @pytest.mark.parametrize("argv", [
        ["moments", "--fn", "omega1"],
        ["moments", "--fn", "omega", "--p0", "5"],
        ["compare", "--fn-star", "omega", "--fn", "sqrtloglog"],
    ], ids=["omega1", "p0", "compare_one_side"])
    def test_one_sweep_off_the_route(self, argv, routes, monkeypatch, capsys):
        _pays(monkeypatch, True)
        assert cli.main([*argv, "--mod", "4", "--res", "1", "--n", "1e5"]) == 0
        assert routes == {"sweep": [10**5], "law": []}

    def test_one_sweep_with_an_override(self, routes, monkeypatch):
        _pays(monkeypatch, True)
        ext = Extension("strong", overrides=(((3, 2), 2.0),))
        x, counts = collect(OMEGA, ext, Progression(4, 1), 10**5)
        assert counts is not None  # on the lattice, and swept
        assert routes == {"sweep": [10**5], "law": []}


# The dataset routes of `moments`, `ektest` and `compare`: (id, spec flags,
# ektest's normalization, counting.pays forced to (None: left as it is),
# spill file, the route each op takes (c counted, s swept, r a spill read),
# the lattice step).
DATASET_ROUTES = [
    ("counted", ["--fn", "omega"], "sqrt_mean", True, False, "ccc", 1.0),
    ("counted_scaled", ["--fn", "scaled:-1.5:one"], "sigma", True, False, "ccc", 1.5),
    ("counted_complete", ["--fn", "const:-1.5", "--ext", "complete"], "sigma", True, False,
     "ccc", 1.5),
    ("lattice_tab", ["--fn", "tab:5=1,7=2,default=0.5"], "sigma", True, False, "sss", 0.5),
    ("lattice_omega", ["--fn", "omega"], "sqrt_mean", False, False, "sss", 1.0),
    ("lattice_scaled", ["--fn", "scaled:-1.5:one"], "sigma", False, False, "sss", 1.5),
    ("float", ["--fn", "sqrtloglog"], "sigma", None, False, "sss", None),
    ("spill_lattice", ["--fn", "omega"], "sqrt_mean", True, True, "src", 1.0),
    ("spill_float", ["--fn", "sqrtloglog"], "sigma", None, True, "srs", None),
]


class TestDatasetRoutes:
    """`moments`, `ektest` and `compare` read one dataset, on every route:
    the same summary bit for bit, ektest centered at its mean with Esseen's
    KS at its step, and at most one sweep per op.  A spill is written by
    `moments --spill` and read back by `ektest --spill`; compare has no
    spill, so it takes the route of the dataset without one."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Every summary (of `moments`, then of compare's two sides), compare
        result, ektest report and step given to ks_lattice, in call order."""
        seen = {"summary": [], "compare": [], "ektest": [], "step": []}

        def spy(mod, name, key, pick=lambda args, out: out):
            real = getattr(mod, name)

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                seen[key].append(pick(args, out))
                return out

            monkeypatch.setattr(mod, name, call)

        spy(moments, "summarize", "summary")
        spy(moments, "compare_pair", "compare")
        spy(stats, "erdos_kac_report", "ektest")
        spy(stats, "ks_lattice", "step", lambda args, out: args[4])
        return seen

    @pytest.mark.parametrize("route, spec, norm, pays, spill, taken, step", DATASET_ROUTES,
                             ids=[row[0] for row in DATASET_ROUTES])
    def test_one_dataset_three_ways(self, route, spec, norm, pays, spill, taken, step, seen,
                                    routes, monkeypatch, tmp_path, capsys, member_block):
        member_block(4099)  # a sweep, its spill and the moments in several blocks
        if pays is not None:
            _pays(monkeypatch, pays)
        spilled = ["--spill", str(tmp_path / "values.f64")] if spill else []
        ops = (["moments", *spec, *spilled], ["ektest", *spec, "--norm", norm, *spilled],
               ["compare", "--fn-star", spec[1], *spec])
        for argv, how in zip(ops, taken):
            sweeps, laws = len(routes["sweep"]), len(routes["law"])
            assert cli.main([*argv, "--mod", "4", "--res", "1", "--n", "1e5"]) == 0
            assert len(routes["sweep"]) - sweeps == (how == "s"), argv
            assert len(routes["law"]) - laws == (how == "c"), argv
        (summary, *compared), (cmp,), (report,) = seen["summary"], seen["compare"], seen["ektest"]
        assert compared == [cmp.summary_star, cmp.summary]  # compare summarizes each side
        assert cmp.summary_star == cmp.summary == summary
        assert report.center == summary.mean
        assert seen["step"] == ([] if step is None else [step])
        assert (report.ks_lattice is None) == (step is None)


# Specs the split sweep is held to the serial one on: a lattice spec, a
# spec off the lattice, and a mixed pair.
SPLIT_SPECS = {
    "lattice": ["tab:5=1.5,7=2,default=0.25"],
    "real": ["sqrtloglog"],
    "mixed": ["omega", "sqrtloglog"],
}


def dataset_bits(data):
    """Everything a dataset holds, as exact values: its moments, its values
    (a spill file's bytes) and counts, and its step."""
    acc, x = data.moments, data.x
    if isinstance(x, SpillFile):
        x = read_whole(x.path)
    return (acc.n, acc.mean.hex(), acc.m.tobytes(), acc.lo.hex(), acc.hi.hex(),
            None if x is None else x.tobytes(),
            None if data.counts is None else data.counts.tobytes(), data.step)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


class TestSplitSweep:
    """The member sweep and the spill read-back split across 1, 2 and 3 CPUs
    give the datasets, spill files and reports of one process, bit for bit,
    and leave no child behind.  Blocks of 1000 members: n = 3000, 6000 and
    10^4 on 1 mod 4 give one block, two, and three with a ragged last one."""

    @pytest.mark.parametrize("n", [3000, 6000, 10**4], ids=["one_block", "two_blocks", "ragged"])
    @pytest.mark.parametrize("keep", [True, False], ids=["keep", "no_keep"])
    @pytest.mark.parametrize("kind", SPLIT_SPECS)
    def test_datasets_equal_the_serial_ones(self, kind, keep, n, member_block, usable_cpus, forks):
        member_block(1000)
        specs, prog = [resolve_spec(text) for text in SPLIT_SPECS[kind]], Progression(4, 1)
        got = []
        for cpus in (1, 2, 3):
            usable_cpus(cpus)
            got.append([dataset_bits(d) for d in collect_datasets(specs, prog, n, keep=keep)])
        assert got[1] == got[0] and got[2] == got[0]
        blocks = -(-prog.count(n) // 1000)
        assert len(forks) == sum(min(cpus, blocks) - 1 for cpus in (1, 2, 3))
        assert no_child_left()

    @pytest.mark.parametrize("n", [6000, 10**4], ids=["two_blocks", "ragged"])
    @pytest.mark.parametrize("text", ["tab:5=1.5,7=2,default=0.25", "sqrtloglog", "omega"])
    def test_spill_files_and_read_back_equal_the_serial_ones(
            self, text, n, member_block, usable_cpus, forks, tmp_path):
        member_block(1000)
        spec, prog = resolve_spec(text), Progression(4, 1)
        files, datasets = [], []
        for cpus in (1, 2, 3):
            usable_cpus(cpus)
            path = tmp_path / f"{cpus}.f64"
            (swept,) = collect_datasets([spec], prog, n, spill=path)
            files.append((path.read_bytes(), (tmp_path / f"{cpus}.f64.json").read_bytes()))
            read_back = spill_dataset(path, *spec, prog, n)
            assert dataset_bits(read_back) == dataset_bits(swept)
            datasets.append(dataset_bits(read_back))
        assert files[1] == files[0] and files[2] == files[0]
        assert len(files[0][0]) == 8 * prog.count(n)
        assert datasets[1] == datasets[0] and datasets[2] == datasets[0]
        assert forks  # the children wrote and read their own blocks
        assert no_child_left()

    def test_the_empty_progression(self, usable_cpus, tmp_path):
        prog, spill = Progression(4, 3), tmp_path / "empty.f64"
        for cpus in (1, 2):
            usable_cpus(cpus)
            for texts in SPLIT_SPECS.values():
                datasets = collect_datasets([resolve_spec(t) for t in texts], prog, 2)
                assert [d.moments.n for d in datasets] == [0] * len(texts)
                with pytest.raises(ValueError, match="no progression members"):
                    summarize(datasets[-1].moments, prog, 2)
            collect_datasets([SQRTLOGLOG_SPEC], prog, 2, spill=spill)
            assert spill.read_bytes() == b""
            assert spill_dataset(spill, *SQRTLOGLOG_SPEC, prog, 2).moments.n == 0
        assert no_child_left()

    @pytest.mark.parametrize("argvs", [
        [["moments", "--fn", "sqrtloglog", "--mod", "1", "--n", "1e4", "--spill", "{spill}"]],
        [["moments", "--fn", "sqrtloglog", "--mod", "1", "--n", "1e4", "--spill", "{spill}"],
         ["ektest", "--fn", "sqrtloglog", "--norm", "sigma", "--mod", "1", "--n", "1e4",
          "--spill", "{spill}"]],
        [["moments", "--fn", "invloglog", "--ext", "complete", "--mod", "3", "--res", "2",
          "--n", "1e4"]],
        [["compare", "--fn-star", "omega", "--fn", "sqrtloglog", "--mod", "4", "--res", "1",
          "--n", "1e4"]],
    ], ids=["moments_spill", "ektest_spill", "moments_complete", "compare"])
    def test_reports_do_not_depend_on_the_split(
            self, argvs, member_block, usable_cpus, tmp_path, capsys):
        member_block(1000)
        reports = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            for argv in argvs:
                assert cli.main([a.replace("{spill}", str(tmp_path / "v.f64")) for a in argv]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]
        assert no_child_left()

    def test_an_off_lattice_value_read_by_a_child_is_reported(
            self, member_block, usable_cpus, tmp_path, capsys):
        member_block(1000)
        prog, n, spill = Progression(4, 1), 10**4, tmp_path / "omega.f64"
        cls = ["--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e4", "--spill", str(spill)]
        assert cli.main(["moments", *cls]) == 0
        values = read_whole(spill)
        values[2200] += 0.5  # in the last block, which a child reads at 2 CPUs
        values.tofile(spill)
        capsys.readouterr()
        errors = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            with pytest.raises(ValueError, match="off the lattice of step 1.0") as raised:
                spill_dataset(spill, OMEGA, OMEGA_EXT, prog, n)
            errors.append(str(raised.value))
            assert cli.main(["ektest", *cls]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {errors[-1]}\n"
        assert errors[1] == errors[0]
        assert no_child_left()

    def test_an_error_in_a_child_sweep_is_reported(
            self, member_block, usable_cpus, monkeypatch, capsys):
        member_block(1000)
        usable_cpus(2)
        parent, values_at = os.getpid(), PrimeFunction.values_at

        def refused_in_a_child(self, primes):
            if os.getpid() != parent:
                raise ValueError("values_at refused in a child")
            return values_at(self, primes)

        monkeypatch.setattr(PrimeFunction, "values_at", refused_in_a_child)
        with pytest.raises(ValueError, match="^values_at refused in a child$"):
            collect_datasets([SQRTLOGLOG_SPEC], Progression(4, 1), 10**4)
        argv = ["moments", "--fn", "sqrtloglog", "--mod", "4", "--res", "1", "--n", "1e4"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: values_at refused in a child\n"
        assert no_child_left()

    def test_an_error_here_kills_and_reaps_the_children(self, member_block, usable_cpus, monkeypatch):
        member_block(1000)
        usable_cpus(3)
        parent, sweep = os.getpid(), arith_fn.iter_progression_values

        def failing(*args, **kwargs):
            if os.getpid() == parent:
                raise ArithmeticError("this process's part")
            time.sleep(30)  # each child is still running when this process fails
            return sweep(*args, **kwargs)

        monkeypatch.setattr(arith_fn, "iter_progression_values", failing)
        started = time.perf_counter()
        with pytest.raises(ArithmeticError, match="this process's part"):
            collect_datasets([SQRTLOGLOG_SPEC], Progression(4, 1), 10**4)
        assert time.perf_counter() - started < 10
        assert no_child_left()
