import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments.arith_fn import (
    COMPLETE,
    FORMULAS,
    STRONG,
    Extension,
    LatticeCounts,
    PrimeFunction,
    TabulatedLookupError,
    increment_table,
    found_dtype,
    iter_progression_values,
    lattice_dtype,
    lattice_steps,
    parse_fn,
    pattern_rows,
    resolve_spec,
)
from apmoments import config
from apmoments.cli import main as cli_main
from apmoments.sieve import Progression, factorize
from oracles import collect_values, eval_additive, eval_at_prime, eval_by_increments, sieve_primes

OMEGA, OMEGA_EXT = resolve_spec("omega")
BIG_OMEGA, BIG_OMEGA_EXT = resolve_spec("big_omega")


class TestEvalAtPrime:
    def test_one_over_loglog_at_11(self):
        # direct evaluation: 1 / ln(ln(11))
        assert eval_at_prime(PrimeFunction("one_over_loglog"), 11) == pytest.approx(
            1.0 / math.log(math.log(11)), rel=1e-14
        )
        assert eval_at_prime(PrimeFunction("one_over_loglog"), 11) == pytest.approx(
            1.143391, abs=1e-6
        )

    def test_constant(self):
        assert eval_at_prime(PrimeFunction("constant", c=0.7), 5) == 0.7

    def test_below_start_prime_is_zero(self):
        assert eval_at_prime(PrimeFunction("one_over_loglog"), 7) == 0.0

    def test_sqrt_loglog_pair(self):
        fn = PrimeFunction("sqrt_loglog")
        total = eval_at_prime(fn, 11) + eval_at_prime(fn, 13)
        assert total == pytest.approx(1.906, abs=5e-4)

    def test_tabulated_missing_raises(self):
        fn = PrimeFunction("tabulated", table=((5, 1.5),))
        with pytest.raises(TabulatedLookupError):
            eval_at_prime(fn, 7)
        with pytest.raises(TabulatedLookupError, match="prime 11"):
            fn.values_at(np.array([3, 5, 11, 5]))
        assert fn.values_at(np.array([3, 5, 2])).tolist() == [0.0, 1.5, 0.0]

    def test_tabulated_default(self):
        fn = PrimeFunction("tabulated", table=((5, 1.5),), default=0.25)
        assert eval_at_prime(fn, 7) == 0.25
        unsorted = PrimeFunction("tabulated", table=((7, 2.0), (5, 1.5)), default=0.25)
        got = unsorted.values_at(np.array([2, 5, 7, 11, 13]))
        assert got.tolist() == [0.0, 1.5, 2.0, 0.25, 0.25]

    def test_start_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeFunction("one_over_loglog", p0=7)
        with pytest.raises(ValueError):
            PrimeFunction("one_over_log", p0=2)

    def test_residue_filter(self):
        fn = PrimeFunction("constant", residue_filter=Progression(4, 1))
        assert eval_at_prime(fn, 5) == 1.0
        assert eval_at_prime(fn, 3) == 0.0
        assert eval_at_prime(fn, 7) == 0.0


class TestBoundedness:
    def test_invloglog_bound_audit(self):
        fn = PrimeFunction("one_over_loglog")  # p0 = 11
        primes = sieve_primes(10**6)
        vals = fn.values_at(primes)
        past_start = primes >= 11
        bound = 1.0 / math.log(math.log(11))
        assert np.all(vals[past_start] > 0)
        assert np.all(vals[past_start] <= bound + 1e-15)
        assert np.all(vals[~past_start] == 0.0)
        # |f| <= 1 only holds from the first prime past e^e
        assert np.all(vals[primes >= 17] <= 1.0)
        assert not fn.bounded_by_one

    def test_invlog_bounded(self):
        assert PrimeFunction("one_over_log").bounded_by_one

    def test_sqrt_loglog_unbounded(self):
        assert PrimeFunction("sqrt_loglog").value_bound() is None

    def test_negative_kinds_flagged(self):
        assert not PrimeFunction("constant", c=-0.7).nonnegative
        assert not parse_fn("scaled:-1:one").nonnegative
        assert parse_fn("one").nonnegative

    @pytest.mark.parametrize("spec", ["scaled:-1:const:-1", "scaled:-1:tab:5=-0.5,default=-1"])
    def test_negative_factor_of_a_negative_shape(self, spec):
        # the sign of f is the sign of c * g, not of c and g apart
        fn = parse_fn(spec)
        assert fn.nonnegative and fn.bounded_by_one
        assert np.all(fn.values_at(sieve_primes(100)) >= 0)


class TestAdditiveEval:
    def test_omega_360(self):
        assert eval_additive(OMEGA, OMEGA_EXT, factorize(360)) == 3

    def test_big_omega_360(self):
        assert eval_additive(BIG_OMEGA, BIG_OMEGA_EXT, factorize(360)) == 6

    def test_empty_sum(self):
        assert eval_additive(OMEGA, OMEGA_EXT, factorize(1)) == 0.0

    def test_sqrt_loglog_composite(self):
        fn = PrimeFunction("sqrt_loglog")
        got = eval_additive(fn, STRONG, factorize(11 * 13))
        assert got == pytest.approx(1.9057, abs=1e-4)

    def test_override_changes_single_prime_power(self):
        ext = Extension("strong", overrides=(((2, 3), 5.0),))
        assert eval_additive(OMEGA, ext, factorize(8)) == 5.0
        assert eval_additive(OMEGA, ext, factorize(4)) == 1.0
        assert eval_additive(OMEGA, ext, factorize(24)) == 6.0  # 2^3 * 3

    def test_override_position_must_be_a_prime(self):
        # the member sweep divides each override position out as a prime
        with pytest.raises(ValueError):
            Extension("strong", overrides=(((4, 1), 1.0),))

    @given(st.integers(2, 10**4), st.integers(2, 10**4))
    @settings(max_examples=150, deadline=None)
    def test_additivity_coprime(self, m, n):
        if math.gcd(m, n) != 1:
            return
        for fn, ext in [
            (OMEGA, OMEGA_EXT),
            (BIG_OMEGA, BIG_OMEGA_EXT),
            (PrimeFunction("one_over_log"), STRONG),
            (PrimeFunction("sqrt_loglog"), COMPLETE),
        ]:
            fm = eval_additive(fn, ext, factorize(m))
            fn_ = eval_additive(fn, ext, factorize(n))
            fmn = eval_additive(fn, ext, factorize(m * n))
            assert fmn == pytest.approx(fm + fn_, rel=1e-12, abs=1e-12)

    @given(st.integers(1, 10**3), st.integers(1, 10**3))
    @settings(max_examples=150, deadline=None)
    def test_complete_additivity_no_coprimality(self, m, n):
        big = lambda x: eval_additive(BIG_OMEGA, BIG_OMEGA_EXT, factorize(x))
        assert big(m * n) == big(m) + big(n)

    @given(st.sampled_from([2, 3, 5, 7, 11, 47, 97]), st.integers(1, 5))
    def test_strong_additivity_prime_powers(self, p, a):
        fn = PrimeFunction("one_over_log")
        assert eval_additive(fn, STRONG, factorize(p**a)) == eval_at_prime(fn, p)


class TestBuiltins:
    def test_omega_variants_at_12(self):
        assert eval_additive(OMEGA, OMEGA_EXT, factorize(12)) == 2
        assert eval_additive(BIG_OMEGA, BIG_OMEGA_EXT, factorize(12)) == 3

    def test_class_v_contrast_at_primes(self):
        # the half-weight counter is 0.5 at every prime; the restricted
        # counter is 1 on its class and 0 off it
        half, half_ext = resolve_spec("half_omega")
        om1, om1_ext = resolve_spec("omega1", Progression(4, 1))
        for p in (5, 13, 17):
            assert eval_additive(half, half_ext, factorize(p)) == 0.5
            assert eval_additive(om1, om1_ext, factorize(p)) == 1.0
        for p in (3, 7, 19):
            assert eval_additive(om1, om1_ext, factorize(p)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_spec("totient")


class TestParseFn:
    def test_round_trips(self):
        assert parse_fn("const:0.7") == PrimeFunction("constant", c=0.7)
        assert parse_fn("invloglog").kind == "one_over_loglog"
        assert parse_fn("sqrtloglog").kind == "sqrt_loglog"
        scaled = parse_fn("scaled:-1:invloglog")
        assert scaled == PrimeFunction("one_over_loglog", c=-1.0)
        assert parse_fn("scaled:-2:tab:5=1.5,default=0.5") == PrimeFunction(
            "tabulated", c=-2.0, table=((5, 1.5),), default=0.5)
        tab = parse_fn("tab:5=1.5,7=2.0,default=0")
        assert dict(tab.table) == {5: 1.5, 7: 2.0}
        assert tab.default == 0.0

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_fn("zeta")


class TestBulkEvaluation:
    @pytest.mark.parametrize(
        "spec,ext",
        [
            (OMEGA, OMEGA_EXT),
            (BIG_OMEGA, BIG_OMEGA_EXT),
            (PrimeFunction("sqrt_loglog"), STRONG),
            (PrimeFunction("one_over_loglog"), COMPLETE),
            (PrimeFunction("constant", residue_filter=Progression(4, 3)), STRONG),
            (PrimeFunction("constant"), Extension("strong", overrides=(((3, 2), 9.0), ((7, 1), -1.0)))),
            (PrimeFunction("constant"), Extension("complete", overrides=(((2, 5), 0.0),))),
            (PrimeFunction("constant"), Extension("strong", overrides=(((61, 1), 4.0),))),
            (PrimeFunction("one_over_log"), Extension("complete", overrides=(((5, 1), 2.0),))),
            # constant from a start prime between sqrt(n) and n: leftovers
            # below it are worth 0, so it must take the gather path
            (PrimeFunction("constant", c=2.5, p0=101), STRONG),
            (PrimeFunction("constant", c=-1.5), COMPLETE),
            (PrimeFunction("tabulated", table=((5, 1.5), (7, 2.0), (103, -3.0)), default=0.25), STRONG),
        ],
    )
    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(4, 1), Progression(12, 7)])
    def test_matches_per_member_oracle(self, spec, ext, prog, member_block):
        member_block(257)
        for n in (3000, 59**2):  # at 59^2, sqrt(n) is itself a prime
            got = collect_values(spec, ext, prog, n)
            members = range(prog.first_member, n + 1, prog.modulus)
            want = np.array([eval_additive(spec, ext, factorize(m)) for m in members])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_block_size_invariance(self, member_block):
        prog = Progression(3, 2)
        member_block(101)
        a = collect_values(OMEGA, OMEGA_EXT, prog, 10**4)
        member_block(1 << 15)
        b = collect_values(OMEGA, OMEGA_EXT, prog, 10**4)
        assert np.array_equal(a, b)

    def test_sweep_blocks_follow_member_block(self, member_block):
        # the block length is read at call time, so the sizes the tests
        # above set are the ones the sweep runs
        prog, n = Progression(3, 2), 10**4
        member_block(101)
        sizes = [block.size for (block,) in iter_progression_values([(OMEGA, OMEGA_EXT)], prog, n)]
        assert len(sizes) == -(-prog.count(n) // 101) and sizes[:-1] == [101] * (len(sizes) - 1)
        assert sum(sizes) == prog.count(n)

    def test_empty_progression_yields_nothing(self):
        assert collect_values(OMEGA, OMEGA_EXT, Progression(7, 5), 4).size == 0


def _division_sweep(specs, progression, n, block_members):
    """The former block kernel, kept as an oracle for the sweep.

    Each row divides one p out of the members on its stride; whatever is
    left above 1 is a prime and is evaluated with ``values_at``.
    """
    total = progression.count(n)
    rows = increment_table(specs, progression, n)
    out = [np.empty(total) for _ in specs]
    for t_lo in range(0, total, block_members):
        size = min(block_members, total - t_lo)
        rest = progression.first_member + progression.modulus * np.arange(
            t_lo, t_lo + size, dtype=np.int64
        )
        vals = [np.zeros(size) for _ in specs]
        for p, pa, t0, deltas in rows:
            off = (t0 - t_lo) % pa
            if off >= size:
                continue
            rest[off::pa] //= p
            for v, d in zip(vals, deltas):
                if d != 0.0:
                    v[off::pa] += d
        big = rest > 1
        if np.any(big):
            leftovers = rest[big]
            for v, (fn, _) in zip(vals, specs):
                fv = fn.values_at(leftovers)
                if np.any(fv):
                    v[big] += fv
        for o, v in zip(out, vals):
            o[t_lo : t_lo + size] = v
    return out


EXACT_SPECS = {
    "omega": (OMEGA, OMEGA_EXT),
    "bigomega": (BIG_OMEGA, BIG_OMEGA_EXT),
    "half_omega": resolve_spec("half_omega"),
    "const-0.7": (parse_fn("const:-0.7"), STRONG),
    "const0": (parse_fn("const:0"), STRONG),
    "tab": (parse_fn("tab:5=1.5,7=2,default=0.25"), STRONG),
    "omega1": None,  # built per progression: its residue filter is the class
    "sqrtloglog": (PrimeFunction("sqrt_loglog"), STRONG),
    "invloglog_complete": (PrimeFunction("one_over_loglog"), COMPLETE),
}


class TestSweepExactness:
    N = 100_003
    BLOCK = 4099  # odd, so rows start at every offset across blocks

    @staticmethod
    def _spec(name, prog):
        return resolve_spec("omega1", prog) if name == "omega1" else EXACT_SPECS[name]

    @pytest.mark.parametrize("name", list(EXACT_SPECS))
    @pytest.mark.parametrize("prog", [Progression(4, 1), Progression(12, 7), Progression(1, 0)])
    def test_bit_identical_to_division_sweep(self, name, prog, member_block):
        fn, ext = self._spec(name, prog)
        member_block(self.BLOCK)
        got = collect_values(fn, ext, prog, self.N)
        (want,) = _division_sweep([(fn, ext)], prog, self.N, self.BLOCK)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("prog", [Progression(4, 1), Progression(1, 0)])
    def test_mixed_sweep_bit_identical(self, prog, member_block):
        # constant and gather specs in one sweep share the found part
        specs = [self._spec(name, prog) for name in EXACT_SPECS]
        member_block(self.BLOCK)
        got = [np.concatenate(cols) for cols in zip(*iter_progression_values(specs, prog, self.N))]
        want = _division_sweep(specs, prog, self.N, self.BLOCK)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "ext", [STRONG, COMPLETE, Extension("strong", overrides=(((3, 2), -0.4),))],
        ids=["strong", "complete", "override"],
    )
    @pytest.mark.parametrize(
        "fn",
        [PrimeFunction(kind, c=-1.3) for kind in FORMULAS]
        + [parse_fn("indicator_one"),  # at factor 1, which values_at does not multiply
           PrimeFunction("constant", c=-1.3, p0=101)],  # priced, as its start is above sqrt(n)
        ids=[*FORMULAS, "indicator_one", "constant-p0"],
    )
    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(4, 3)])
    def test_float_columns_bit_identical_to_member_oracle(self, fn, ext, prog, member_block):
        # blocks of 997: 6 full blocks and a short last one of 18 members,
        # with rest = 1 (worth f(1) = 0) on every member without a prime
        # above sqrt(n)
        n = 6000 * prog.modulus
        member_block(997)
        blocks = [block for (block,) in iter_progression_values([(fn, ext)], prog, n)]
        assert [b.size for b in blocks] == [997] * 6 + [18]
        got = np.concatenate(blocks)
        want = self._oracle(fn, ext, prog, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    # The rows of primes above isqrt(block) run as one index pass per
    # block (np.multiply.at / np.add.at); each case below has such rows.

    @staticmethod
    def _oracle(fn, ext, prog, n):
        members = range(prog.first_member, n + 1, prog.modulus)
        return np.array([eval_by_increments(fn, ext, factorize(m)) for m in members])

    @pytest.mark.parametrize("ext", [STRONG, COMPLETE], ids=["strong", "complete"])
    @pytest.mark.parametrize(
        "fn", [*(PrimeFunction(kind, c=-1.3) for kind in FORMULAS), parse_fn("indicator_one")],
        ids=[*FORMULAS, "indicator_one"])
    @pytest.mark.parametrize("block,n", [(1, 500), (2, 501)])
    def test_batched_rows_bit_identical_to_member_oracle(self, block, n, fn, ext, member_block):
        # blocks of 1 and 2 members batch every row (isqrt is 1); blocks of
        # 997 are test_float_columns_bit_identical_to_member_oracle
        member_block(block)
        got = collect_values(fn, ext, Progression(1, 0), n)
        want = self._oracle(fn, ext, Progression(1, 0), n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("ext", [STRONG, COMPLETE], ids=["strong", "complete"])
    def test_member_on_two_batched_rows_of_one_block(self, ext, member_block):
        # 1369 = 37^2 (rows 37 and 1369), 1517 = 37 * 41 and 4551 = 3 * 37 * 41
        # all lie in a block of 997 on two rows of primes above 31
        fn, prog, n = PrimeFunction("sqrt_loglog"), Progression(1, 0), 6000
        rows = [row[:2] for row in increment_table([(fn, ext)], prog, n)]
        assert {(37, 37), (37, 1369), (41, 41)} <= set(rows)
        member_block(997)
        got = collect_values(fn, ext, prog, n)
        want = self._oracle(fn, ext, prog, n)
        assert got[1517 - 1] == eval_at_prime(fn, 37) + eval_at_prime(fn, 41)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["omega", "bigomega"])
    def test_short_last_block_keeps_spare_slot_hits_out(self, name, member_block):
        # int8 lattice columns (float ones: test_float_columns_bit_identical_
        # to_member_oracle): the last block holds 18 members, so most of the
        # batched rows' hits fall past it, into the spare slot, which no
        # yielded column shows
        prog = Progression(4, 3)
        n = 4 * (6 * 997 + 18) - 1
        specs = [resolve_spec(name)]
        steps = lattice_steps(specs, increment_table(specs, prog, n), n)
        member_block(997)
        blocks = [block for (block,) in iter_progression_values(specs, prog, n, steps=steps)]
        assert steps == [1.0] and [b.size for b in blocks] == [997] * 6 + [18]
        assert np.array_equal(np.concatenate(blocks), self._oracle(*specs[0], prog, n))

    @pytest.mark.parametrize("block", [1, 2, 997])
    def test_int16_lattice_column_with_batched_rows(self, block, member_block):
        # 125 at p = 5 makes the column int16; the default, 1, sits on the
        # batched rows of every prime above isqrt(block)
        specs, prog, n = [(parse_fn("tab:5=125,default=1"), COMPLETE)], Progression(4, 1), 1001
        steps = lattice_steps(specs, increment_table(specs, prog, n), n)
        member_block(block)
        (k,) = TestIntegerColumns._columns(specs, prog, n, steps)
        assert steps == [1.0] and k.dtype == np.int16 and k.max() > 127
        assert np.array_equal(k, self._oracle(*specs[0], prog, n).astype(np.int64))

    @pytest.mark.parametrize("mode", ["strong", "complete"])
    @pytest.mark.parametrize("block,n", [(1, 600), (2, 601), (997, 3000)])
    def test_overrides_above_sqrt_n_on_batched_rows(self, mode, block, n, member_block):
        # 101 is above sqrt(n), so its row exists only for its override, and
        # every block length here batches it
        ext = Extension(mode, overrides=(((31, 1), 4.0), ((101, 1), -2.5), ((7, 2), 0.3)))
        fn, prog = PrimeFunction("one_over_log"), Progression(1, 0)
        assert 101 in {row[0] for row in increment_table([(fn, ext)], prog, n)}
        member_block(block)
        got = collect_values(fn, ext, prog, n)
        want = self._oracle(fn, ext, prog, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_lattice_sweep_skips_leftover_evaluation(self, monkeypatch):
        sizes = []
        values_at = PrimeFunction.values_at

        def recording(self, primes):
            sizes.append(np.asarray(primes).size)
            return values_at(self, primes)

        monkeypatch.setattr(PrimeFunction, "values_at", recording)
        n = 10**5
        collect_values(OMEGA, OMEGA_EXT, Progression(4, 1), n)
        assert sizes  # the increment table still asks for f at its primes
        assert max(sizes) <= sieve_primes(math.isqrt(n)).size


class TestPresievePattern:
    """Each sweep block starts as the pre-sieve pattern of the smallest
    strided rows (pattern_rows), tiled from the block's phase; the sweeps
    below are held to the member oracle bit for bit."""

    @staticmethod
    def _strided(specs, prog, n, block):
        # the rows a sweep in blocks of `block` members strides: p <= isqrt(block)
        return [row for row in increment_table(specs, prog, n) if row[0] <= math.isqrt(block)]

    @staticmethod
    def _columns(specs, prog, n):
        steps = lattice_steps(specs, increment_table(specs, prog, n), n)
        return TestIntegerColumns._columns(specs, prog, n, steps)

    @staticmethod
    def _assert_oracle(specs, prog, n, got):
        for (fn, ext), col in zip(specs, got):
            want = TestSweepExactness._oracle(fn, ext, prog, n)
            if col.dtype != np.float64:  # a lattice column of step 1
                col = col.astype(np.float64)
            assert np.array_equal(col, want)
            assert np.array_equal(np.signbit(col), np.signbit(want))

    @pytest.mark.parametrize("prog, period, covered", [
        (Progression(4, 1), 45045, [3, 9, 5, 7, 11, 13]),
        (Progression(3, 2), 40040, [2, 4, 8, 5, 7, 11, 13]),
        (Progression(1, 0), 55440, [2, 4, 8, 16, 3, 9, 5, 7, 11]),
    ], ids=["mod4", "mod3", "k1"])
    @pytest.mark.parametrize("floats", [[False], [True]], ids=["lattice", "float"])
    def test_period_and_covered_rows_at_the_default_block(self, prog, period, covered, floats):
        # omega's rows past a = 1 add 0, so the order rule keeps nothing out
        rows = self._strided([resolve_spec("omega")], prog, 3 * 10**7, config.MEMBER_BLOCK)
        got_period, got = pattern_rows(rows, floats)
        assert got_period == period and [rows[i][1] for i in got] == covered

    @pytest.mark.parametrize("prog, floats, period, covered", [
        (Progression(4, 1), [False], 45045, [3, 9, 5, 7, 11, 13]),
        (Progression(4, 1), [True], 9, [3, 9]),  # 27 is not covered, so 5 waits
        (Progression(1, 0), [True], 16, [2, 4, 8, 16]),
        (Progression(1, 0), [False, True], 16, [2, 4, 8, 16]),  # one float column decides
    ], ids=["mod4-lattice", "mod4-float", "k1-float", "k1-mixed"])
    def test_order_rule_for_complete_columns(self, prog, floats, period, covered):
        rows = self._strided([resolve_spec("bigomega")] * len(floats), prog, 3 * 10**7,
                             config.MEMBER_BLOCK)
        got_period, got = pattern_rows(rows, floats)
        assert got_period == period and [rows[i][1] for i in got] == covered

    @pytest.mark.parametrize("n, block", [(4000, 1 << 15), (4 * (6 * 997 + 18), 997)],
                             ids=["one-block", "short-last-block"])
    def test_block_shorter_than_the_period(self, n, block, member_block):
        # 1000 members against W = 3465 at blocks of 2^15 (pieces of 4096);
        # a last block of 16 members against W = 105 at blocks of 997
        prog = Progression(4, 1)
        specs = [resolve_spec("omega"), (PrimeFunction("sqrt_loglog"), STRONG)]
        member_block(block)
        period, _ = pattern_rows(self._strided(specs, prog, n, min(block, prog.count(n))),
                                 [False, True])
        assert prog.count(n) % block < period
        self._assert_oracle(specs, prog, n, self._columns(specs, prog, n))

    @pytest.mark.parametrize("name, covered", [("omega", [2, 4, 8, 3, 5]),
                                               ("bigomega", [2, 4, 8])])
    def test_two_power_rows_at_k1(self, name, covered, member_block):
        # blocks of 997 (pieces of 125), a lattice and a float column in one
        # sweep: omega's float column adds 0 past a = 1 and covers W = 120,
        # bigomega's adds f(2) at 16, which 120 does not hold
        prog, n = Progression(1, 0), 6000
        specs = [resolve_spec(name)] * 2
        member_block(997)
        rows = self._strided(specs, prog, n, 997)
        _, got = pattern_rows(rows, [False, True])
        assert [rows[i][1] for i in got] == covered
        cols = TestIntegerColumns._columns(specs, prog, n, [1.0, None])
        assert cols[0].dtype == np.int8 and cols[1].dtype == np.float64
        self._assert_oracle(specs, prog, n, cols)

    def test_complete_float_spec_from_2_keeps_rows_out(self, member_block):
        # every row of one_minus_inv_p under the complete rule adds a nonzero
        # float; 16 is not covered at pieces of 125, so 3 and 5 stay strided
        fn, prog, n = PrimeFunction("one_minus_one_over_p", c=-1.3), Progression(1, 0), 6000
        specs = [(fn, COMPLETE)]
        member_block(997)
        rows = self._strided(specs, prog, n, 997)
        period, covered = pattern_rows(rows, [False])  # without the rule
        assert period == 120 and [rows[i][1] for i in covered] == [2, 4, 8, 3, 5]
        period, covered = pattern_rows(rows, [True])
        assert period == 8 and [rows[i][1] for i in covered] == [2, 4, 8]
        self._assert_oracle(specs, prog, n, [collect_values(fn, COMPLETE, prog, n)])

    @pytest.mark.parametrize("fn, ext", [
        (PrimeFunction("one_over_log"), Extension("strong", overrides=(((5, 1), 2.0),))),
        (PrimeFunction("one_over_log"), Extension("complete", overrides=(((3, 2), -0.4),))),
        (OMEGA, Extension("strong", overrides=(((3, 2), 3.0), ((7, 1), -1.0)))),
    ], ids=["float-strong-5", "float-complete-9", "lattice-9-and-7"])
    def test_override_on_a_pattern_row(self, fn, ext, member_block):
        prog, n = Progression(4, 3), 4 * 6000
        member_block(4099)  # pieces of 513: W = 315 covers 3, 9, 5 and 7
        specs = [(fn, ext)]
        rows = self._strided(specs, prog, n, 4099)
        _, covered = pattern_rows(rows, [fn is not OMEGA])
        overridden = {p ** a for (p, a), _ in ext.overrides}
        assert overridden <= {rows[i][1] for i in covered}
        self._assert_oracle(specs, prog, n, self._columns(specs, prog, n))

    @pytest.mark.parametrize("block", [997, 4099])
    def test_int16_lattice_tab_spec(self, block, member_block):
        # 125 at p = 5, a covered row, makes the column int16
        specs, prog, n = [(parse_fn("tab:5=125,default=1"), COMPLETE)], Progression(4, 1), 4 * 6000
        member_block(block)
        rows = self._strided(specs, prog, n, block)
        _, covered = pattern_rows(rows, [False])
        assert 5 in {rows[i][1] for i in covered}
        (k,) = self._columns(specs, prog, n)
        assert k.dtype == np.int16 and k.max() > 127
        self._assert_oracle(specs, prog, n, [k])


class TestLatticeFold:
    """LatticeCounts counts a block spanning few lattice points value by value
    and bins a wider one; either way its table is np.unique's."""

    @staticmethod
    def _fold(blocks, step=1.0):
        table = LatticeCounts(step)
        for block in blocks:
            table.merge(table.batch(block))
        return table.table()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    @pytest.mark.parametrize("span", [1, 9, LatticeCounts.SPAN_COUNTED,
                                      LatticeCounts.SPAN_COUNTED + 1, 100])
    @pytest.mark.parametrize("lo", [-50, -3, 0, 7])
    def test_equals_unique(self, dtype, span, lo):
        rng = np.random.default_rng(span * 1000 + lo + 500)
        blocks = [rng.integers(lo, lo + span, size, endpoint=False).astype(dtype)
                  for size in (1, 4099, 1 << 15, 17)]
        for block in blocks[1:3]:  # the span is attained
            block[:2] = lo, lo + span - 1
        x, counts = self._fold(blocks, 0.5)
        want_k, want_counts = np.unique(np.concatenate(blocks), return_counts=True)
        assert np.array_equal(x, want_k * 0.5) and np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("text", ["const:-1", "bigomega"])
    def test_sweep_blocks_fold_to_unique(self, text, member_block):
        # const:-1 gives indices 0 down to -omega(m); bigomega spans more
        specs = [resolve_spec(text)]
        prog, n = Progression(4, 1), 10**5
        steps = lattice_steps(specs, increment_table(specs, prog, n), n)
        member_block(4099)
        blocks = [block for (block,) in iter_progression_values(specs, prog, n, steps=steps)]
        assert blocks[0].dtype == np.int8
        spans = {int(b.max()) - int(b.min()) + 1 for b in blocks}
        assert max(spans) <= LatticeCounts.SPAN_COUNTED
        x, counts = self._fold(blocks, steps[0])
        want_k, want_counts = np.unique(np.concatenate(blocks), return_counts=True)
        assert bool(want_k.min() < 0) == (text == "const:-1")
        assert np.array_equal(x, want_k * steps[0]) and np.array_equal(counts, want_counts)


class TestCofactorCount:
    """const:1 from p0 = isqrt(n) + 1 counts a member's prime factors above
    sqrt(n), of which there is at most one.  The members worth 1 are the
    s * q with s < sqrt(n) and q a prime in (sqrt(n), n / s], and s * q = r
    (mod k) puts q in the class r / s (a Buchstab-type count)."""

    N = 10**6

    @pytest.mark.parametrize("block", [None, 997])
    @pytest.mark.parametrize(
        "prog", [Progression(4, 1), Progression(4, 3), Progression(1, 0), Progression(9, 2)])
    def test_members_with_a_prime_above_sqrt_n(self, prog, block, member_block):
        n, root, k = self.N, math.isqrt(self.N), prog.modulus
        specs = [resolve_spec("const:1", prog, p0=root + 1)]
        steps = lattice_steps(specs, increment_table(specs, prog, n), n)
        assert steps == [1.0]
        if block:
            member_block(block)
        lattice = sum(int(np.count_nonzero(b == 1))
                      for (b,) in iter_progression_values(specs, prog, n, steps=steps))
        floats = int(np.count_nonzero(collect_values(*specs[0], prog, n) == 1.0))

        q = sieve_primes(n)
        q = q[q > root]
        by_class = {c: q[q % k == c] for c in range(k)}
        want = sum(
            int(np.searchsorted(by_class[prog.residue * pow(s, -1, k) % k], n // s, side="right"))
            for s in range(1, math.isqrt(n - 1) + 1) if math.gcd(s, k) == 1
        )
        assert want > 0 and lattice == floats == want


class TestConstantAbove:
    X = 50

    def test_constant_and_indicator(self):
        assert PrimeFunction("constant", c=-0.7).constant_above(self.X) == -0.7
        assert PrimeFunction("constant").constant_above(self.X) == 1.0
        assert PrimeFunction("constant", c=2.5, p0=51).constant_above(self.X) == 2.5
        assert PrimeFunction("constant", c=2.5, p0=53).constant_above(self.X) is None

    def test_residue_filter(self):
        restricted = PrimeFunction("constant", residue_filter=Progression(4, 1))
        assert restricted.constant_above(self.X) is None
        full = PrimeFunction("constant", residue_filter=Progression(1, 0))
        assert full.constant_above(self.X) == 1.0

    def test_factor(self):
        assert parse_fn("scaled:-1.5:one").constant_above(self.X) == -1.5
        late = PrimeFunction("constant", c=2.0, p0=101)
        assert dataclasses.replace(late, c=0.5).constant_above(self.X) is None
        assert parse_fn("scaled:0.5:invlog").constant_above(self.X) is None
        tab = PrimeFunction("tabulated", c=-2.0, table=((5, 1.5), (47, 2.0)), default=0.25)
        assert tab.constant_above(self.X) == -0.5

    def test_tabulated(self):
        tab = PrimeFunction("tabulated", table=((5, 1.5), (47, 2.0)), default=0.25)
        assert tab.constant_above(self.X) == 0.25
        above = PrimeFunction("tabulated", table=((5, 1.5), (53, 2.0)), default=0.25)
        assert above.constant_above(self.X) is None
        no_default = PrimeFunction("tabulated", table=((5, 1.5),))
        assert no_default.constant_above(self.X) is None

    @pytest.mark.parametrize(
        "kind",
        ["one_over_loglog", "one_over_log", "sqrt_loglog", "one_minus_one_over_p",
         "one_minus_one_over_log"],
    )
    def test_varying_kinds(self, kind):
        assert PrimeFunction(kind).constant_above(self.X) is None

    @pytest.mark.parametrize(
        "fn",
        [
            PrimeFunction("constant", c=-0.7),
            PrimeFunction("constant", c=-1.5),
            PrimeFunction("tabulated", table=((5, 1.5), (47, 2.0)), default=0.25),
            PrimeFunction("tabulated", c=-3.0, table=((5, 1.5), (47, 2.0)), default=0.25),
        ],
    )
    def test_agrees_with_values_at(self, fn):
        c = fn.constant_above(self.X)
        primes = sieve_primes(10**4)
        big = primes[primes > self.X]
        assert np.array_equal(fn.values_at(big), np.full(big.size, c))


class TestIntegerColumns:
    """A lattice spec swept with its step: integer lattice indices k, the
    value being k * step, in the narrow types of the two pure choosers."""

    N = 100_003
    BLOCK = 4099

    def test_found_dtype_at_the_32_bit_edge(self):
        assert found_dtype(2**32 - 1) is np.uint32
        assert found_dtype(2**32) is np.int64

    def test_lattice_dtype_at_its_edges(self):
        # floor(log2 128) = 7 rows at most: 7 * 18 + 1 = 127, 7 * 19 + 1 = 134
        assert lattice_dtype(128, 18) is np.int8
        assert lattice_dtype(255, 18) is np.int8
        assert lattice_dtype(128, 19) is np.int16
        assert lattice_dtype(256, 18) is np.int16  # 8 rows
        # floor(log2 4) = 2: the bound 2 * k_max + 1 at each type's maximum
        assert lattice_dtype(4, 2**14 - 1) is np.int16
        assert lattice_dtype(4, 2**14) is np.int32
        assert lattice_dtype(4, 2**62 - 1) is np.int64
        assert lattice_dtype(4, 2**62) is None

    @staticmethod
    def _columns(specs, prog, n, steps=None):
        return [np.concatenate(cols)
                for cols in zip(*iter_progression_values(specs, prog, n, steps=steps))]

    @pytest.mark.parametrize("name", list(EXACT_SPECS))
    @pytest.mark.parametrize("prog", [Progression(4, 1), Progression(12, 7), Progression(1, 0)])
    def test_equals_the_float_sweep_folded_with_rint(self, name, prog, member_block):
        # a spec off the lattice keeps its float64 column even when steps are given
        specs = [TestSweepExactness._spec(name, prog)]
        steps = lattice_steps(specs, increment_table(specs, prog, self.N), self.N)
        member_block(self.BLOCK)
        (got,) = self._columns(specs, prog, self.N, steps)
        values = collect_values(*specs[0], prog, self.N)
        if steps == [None]:
            assert got.dtype == np.float64 and np.array_equal(got, values)
        else:
            assert np.issubdtype(got.dtype, np.signedinteger)
            assert np.array_equal(got, np.rint(values / steps[0]).astype(np.int64))

    def test_lattice_specs_among_the_exact_specs(self):
        prog = Progression(4, 1)
        specs = {name: TestSweepExactness._spec(name, prog) for name in EXACT_SPECS}
        on = [name for name, spec in specs.items()
              if lattice_steps([spec], increment_table([spec], prog, self.N), self.N)[0]]
        assert on == ["omega", "bigomega", "half_omega", "const-0.7", "tab"]

    @pytest.mark.parametrize("text,step", [("const:-0.7", 0.7), ("scaled:-1:one", 1.0)])
    def test_negative_steps_give_negative_indices(self, text, step, member_block):
        specs = [(parse_fn(text), STRONG)]
        prog = Progression(4, 1)
        steps = lattice_steps(specs, increment_table(specs, prog, self.N), self.N)
        assert steps == [step]
        member_block(self.BLOCK)
        (k,) = self._columns(specs, prog, self.N, steps)
        values = collect_values(*specs[0], prog, self.N)
        assert k.max() == 0 and k.min() < -3
        assert np.array_equal(k, np.rint(values / step).astype(np.int64))
        assert np.allclose(k * step, values, rtol=1e-14, atol=0)

    def test_int16_column_for_a_large_table_entry(self):
        # 125 at p = 5: 16 rows * 125 + 1 > 127, and values up to 129
        specs = [(parse_fn("tab:5=125,default=1"), STRONG)]
        prog = Progression(4, 1)
        steps = lattice_steps(specs, increment_table(specs, prog, self.N), self.N)
        assert steps == [1.0]
        (k,) = self._columns(specs, prog, self.N, steps)
        assert k.dtype == np.int16 and k.max() > 127
        assert np.array_equal(k, collect_values(*specs[0], prog, self.N).astype(np.int64))

    @pytest.mark.parametrize("text", ["tab:5=1e20,default=1", "tab:5=1e300,default=1e-300"])
    def test_index_past_int64_is_off_the_lattice(self, text):
        # each entry is an integer multiple of the default, but no integer
        # type holds the index (1e300 / 1e-300 is not even finite, and
        # rounding it raised OverflowError), so the spec takes the float path
        specs = [(parse_fn(text), STRONG)]
        prog = Progression(1, 0)
        assert lattice_steps(specs, increment_table(specs, prog, 1000), 1000) == [None]

    def test_index_past_int64_runs_on_the_float_path(self, tmp_path):
        # the float fold of this spec's indices wrapped and failed in bincount
        out = tmp_path / "report.json"
        assert cli_main(["moments", "--fn", "tab:5=1e20,default=1", "--n", "1000",
                         "--out", str(out)]) == 0

    def test_mixed_sweep_columns_equal_single_spec_sweeps(self, member_block):
        # a lattice column and a float column in one sweep: each is bit for
        # bit the column of its own single-spec sweep
        specs = [(OMEGA, OMEGA_EXT), (PrimeFunction("one_over_loglog"), STRONG)]
        prog = Progression(4, 1)
        steps = lattice_steps(specs, increment_table(specs, prog, self.N), self.N)
        assert steps == [1.0, None]
        member_block(self.BLOCK)
        k, values = self._columns(specs, prog, self.N, steps)
        assert k.dtype == np.int8 and values.dtype == np.float64
        (alone,) = self._columns(specs[:1], prog, self.N, steps[:1])
        assert np.array_equal(k, alone)
        assert np.array_equal(values, collect_values(*specs[1], prog, self.N))
