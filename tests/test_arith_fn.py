import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments.arith_fn import (
    COMPLETE,
    STRONG,
    Extension,
    PrimeFunction,
    TabulatedLookupError,
    _increment_table,
    builtin,
    collect_values,
    eval_additive,
    eval_at_prime,
    iter_progression_values,
    parse_fn,
)
from apmoments.sieve import Progression, factorize, sieve_primes

OMEGA, OMEGA_EXT = builtin("omega")
BIG_OMEGA, BIG_OMEGA_EXT = builtin("big_omega")


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
        fn = PrimeFunction("indicator_one", residue_filter=Progression(4, 1))
        assert eval_at_prime(fn, 5) == 1.0
        assert eval_at_prime(fn, 3) == 0.0
        assert eval_at_prime(fn, 7) == 0.0


class TestBoundedness:
    def test_invloglog_bound_audit(self):
        fn = PrimeFunction("one_over_loglog")  # p0 = 11
        primes = sieve_primes(10**6).primes
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
        assert not PrimeFunction("scaled", c=-1.0, inner=PrimeFunction("indicator_one")).nonnegative
        assert PrimeFunction("indicator_one").nonnegative


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
        half, half_ext = builtin("half_omega")
        om1, om1_ext = builtin("omega1", Progression(4, 1))
        for p in (5, 13, 17):
            assert eval_additive(half, half_ext, factorize(p)) == 0.5
            assert eval_additive(om1, om1_ext, factorize(p)) == 1.0
        for p in (3, 7, 19):
            assert eval_additive(om1, om1_ext, factorize(p)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("totient")


class TestParseFn:
    def test_round_trips(self):
        assert parse_fn("const:0.7") == PrimeFunction("constant", c=0.7)
        assert parse_fn("invloglog").kind == "one_over_loglog"
        assert parse_fn("sqrtloglog").kind == "sqrt_loglog"
        scaled = parse_fn("scaled:-1:invloglog")
        assert scaled.c == -1.0 and scaled.inner.kind == "one_over_loglog"
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
            (PrimeFunction("indicator_one", residue_filter=Progression(4, 3)), STRONG),
            (PrimeFunction("indicator_one"), Extension("strong", overrides=(((3, 2), 9.0), ((7, 1), -1.0)))),
            (PrimeFunction("indicator_one"), Extension("complete", overrides=(((2, 5), 0.0),))),
            (PrimeFunction("indicator_one"), Extension("strong", overrides=(((61, 1), 4.0),))),
            (PrimeFunction("one_over_log"), Extension("complete", overrides=(((5, 1), 2.0),))),
            # constant from a start prime between sqrt(n) and n: leftovers
            # below it are worth 0, so it must take the gather path
            (PrimeFunction("constant", c=2.5, p0=101), STRONG),
            (PrimeFunction("scaled", c=-1.5, inner=PrimeFunction("indicator_one")), COMPLETE),
            (PrimeFunction("tabulated", table=((5, 1.5), (7, 2.0), (103, -3.0)), default=0.25), STRONG),
        ],
    )
    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(4, 1), Progression(12, 7)])
    def test_matches_per_member_oracle(self, spec, ext, prog):
        for n in (3000, 59**2):  # at 59^2, sqrt(n) is itself a prime
            got = collect_values(spec, ext, prog, n, block_members=257)
            want = np.array(
                [eval_additive(spec, ext, factorize(int(m))) for m in prog.members(n)]
            )
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_block_size_invariance(self):
        prog = Progression(3, 2)
        a = collect_values(OMEGA, OMEGA_EXT, prog, 10**4, block_members=101)
        b = collect_values(OMEGA, OMEGA_EXT, prog, 10**4, block_members=1 << 15)
        assert np.array_equal(a, b)

    def test_empty_progression_yields_nothing(self):
        assert collect_values(OMEGA, OMEGA_EXT, Progression(7, 5), 4).size == 0


def _division_sweep(specs, progression, n, block_members):
    """The former block kernel, kept as an oracle for the sweep.

    Each row divides one p out of the members on its stride; whatever is
    left above 1 is a prime and is evaluated with ``values_at``.
    """
    total = progression.count(n)
    rows = _increment_table(specs, progression, n)
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
    "half_omega": builtin("half_omega"),
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
        return builtin("omega1", prog) if name == "omega1" else EXACT_SPECS[name]

    @pytest.mark.parametrize("name", list(EXACT_SPECS))
    @pytest.mark.parametrize("prog", [Progression(4, 1), Progression(12, 7), Progression(1, 0)])
    def test_bit_identical_to_division_sweep(self, name, prog):
        fn, ext = self._spec(name, prog)
        got = collect_values(fn, ext, prog, self.N, block_members=self.BLOCK)
        (want,) = _division_sweep([(fn, ext)], prog, self.N, self.BLOCK)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("prog", [Progression(4, 1), Progression(1, 0)])
    def test_mixed_sweep_bit_identical(self, prog):
        # constant and gather specs in one sweep share the found part
        specs = [self._spec(name, prog) for name in EXACT_SPECS]
        got = [np.concatenate(cols) for cols in zip(*iter_progression_values(
            specs, prog, self.N, block_members=self.BLOCK))]
        want = _division_sweep(specs, prog, self.N, self.BLOCK)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

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
        assert max(sizes) <= sieve_primes(math.isqrt(n)).primes.size


class TestConstantAbove:
    X = 50

    def test_constant_and_indicator(self):
        assert PrimeFunction("constant", c=-0.7).constant_above(self.X) == -0.7
        assert PrimeFunction("indicator_one").constant_above(self.X) == 1.0
        assert PrimeFunction("constant", c=2.5, p0=51).constant_above(self.X) == 2.5
        assert PrimeFunction("constant", c=2.5, p0=53).constant_above(self.X) is None

    def test_residue_filter(self):
        restricted = PrimeFunction("indicator_one", residue_filter=Progression(4, 1))
        assert restricted.constant_above(self.X) is None
        full = PrimeFunction("indicator_one", residue_filter=Progression(1, 0))
        assert full.constant_above(self.X) == 1.0

    def test_scaled(self):
        one = PrimeFunction("indicator_one")
        assert PrimeFunction("scaled", c=-1.5, inner=one).constant_above(self.X) == -1.5
        late = PrimeFunction("constant", c=2.0, p0=101)
        assert PrimeFunction("scaled", c=0.5, inner=late).constant_above(self.X) is None
        curved = PrimeFunction("one_over_log")
        assert PrimeFunction("scaled", c=0.5, inner=curved).constant_above(self.X) is None

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
            PrimeFunction("scaled", c=-1.5, inner=PrimeFunction("indicator_one")),
            PrimeFunction("tabulated", table=((5, 1.5), (47, 2.0)), default=0.25),
        ],
    )
    def test_agrees_with_values_at(self, fn):
        c = fn.constant_above(self.X)
        primes = sieve_primes(10**4).primes
        big = primes[primes > self.X]
        assert np.array_equal(fn.values_at(big), np.full(big.size, c))
