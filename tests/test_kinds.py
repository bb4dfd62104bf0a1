"""The table of formula kinds against the per-kind code it replaced.

Two frozen oracles from the if-chain implementation that preceded
``FORMULAS``: ``_chain_values_at`` (its values_at, kept here verbatim)
and ``data/formula_kinds.json`` (its start prime, bound, sign, constant
tail, closed form, quadrature and decay case of every formula kind, plain,
scaled by -2 and started at 13, for orders 1..4 at x = 1e6, k = 4).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from apmoments.arith_fn import (
    FORMULAS,
    COMPLETE,
    STRONG,
    PrimeFunction,
    builtin,
    parse_fn,
    resolve_spec,
)
from apmoments.prime_sums import (
    ClosedFormUnavailable,
    classify_decay,
    closed_form_asymptotic,
    integral_asymptotic,
)
from apmoments.sieve import Progression, sieve_primes

PRIMES = sieve_primes(10**5).primes
FACTS = json.loads((Path(__file__).parent / "data" / "formula_kinds.json").read_text())

_CHAIN_START = {"one_over_loglog": 11, "one_over_log": 3, "sqrt_loglog": 3,
                "one_minus_one_over_log": 3}


def _chain_values_at(fn, primes):
    """values_at as the per-kind if-chain computed it (frozen oracle)."""
    p_int = np.asarray(primes, dtype=np.int64)
    p = p_int.astype(np.float64)
    if fn.p0 is not None:
        start = fn.p0
    elif fn.kind == "scaled":
        start = fn.inner.start_prime
    elif fn.kind == "tabulated":
        start = min(q for q, _ in fn.table)
    else:
        start = _CHAIN_START.get(fn.kind, 2)
    pc = np.maximum(p, float(start))
    kind = fn.kind
    if kind == "constant":
        vals = np.full(p.shape, fn.c)
    elif kind == "indicator_one":
        vals = np.ones(p.shape)
    elif kind == "one_over_loglog":
        vals = 1.0 / np.log(np.log(pc))
    elif kind == "one_over_log":
        vals = 1.0 / np.log(pc)
    elif kind == "sqrt_loglog":
        vals = np.sqrt(np.log(np.log(pc)))
    elif kind == "one_minus_one_over_p":
        vals = 1.0 - 1.0 / pc
    elif kind == "one_minus_one_over_log":
        vals = 1.0 - 1.0 / np.log(pc)
    elif kind == "scaled":
        vals = fn.c * _chain_values_at(fn.inner, p_int)
    else:
        lookup = dict(fn.table)
        keys = np.array(sorted(lookup), dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, p_int), keys.size - 1)
        hit = keys[pos] == p_int
        table_vals = np.array([lookup[q] for q in keys.tolist()])
        vals = np.where(hit, table_vals[pos], fn.default or 0.0)
    vals = np.where(p_int < start, 0.0, vals)
    if fn.residue_filter is not None and not fn.residue_filter.is_full:
        k, l = fn.residue_filter.modulus, fn.residue_filter.residue
        vals = np.where(p_int % k == l, vals, 0.0)
    return vals


def _fact_specs() -> dict[str, PrimeFunction]:
    """The specs of ``FACTS``, by the names used there."""
    base = {"constant:-1.3": PrimeFunction("constant", c=-1.3),
            "constant:0.7": PrimeFunction("constant", c=0.7)}
    curved = [kind for kind in FORMULAS if kind != "constant"]
    base.update((kind, PrimeFunction(kind)) for kind in curved)
    out = dict(base)
    for name in ["constant:0.7", *curved]:
        out[f"scaled:-2:{name}"] = PrimeFunction("scaled", c=-2.0, inner=base[name])
    out["constant:0.7@p0=13"] = PrimeFunction("constant", c=0.7, p0=13)
    out.update((f"{kind}@p0=13", PrimeFunction(kind, p0=13)) for kind in curved)
    return out


def _values_at_cases():
    cases = []
    for kind in FORMULAS:
        plain = PrimeFunction(kind, c=-1.3) if kind == "constant" else PrimeFunction(kind)
        cases += [
            (kind, plain),
            (f"{kind}-p0", PrimeFunction(kind, c=plain.c, p0=101)),
            (f"{kind}-filter", PrimeFunction(kind, c=plain.c, residue_filter=Progression(4, 3))),
            (f"{kind}-scaled", PrimeFunction("scaled", c=-0.75, inner=plain)),
        ]
    table = ((5, 1.5), (7, 2.0), (103, -3.0))
    cases += [
        ("tab-default", PrimeFunction("tabulated", table=table, default=0.25)),
        ("tab-no-default", PrimeFunction("tabulated", table=((2, 1.0), (3, -1.0)), p0=2)),
    ]
    return cases


class TestValuesAt:
    @pytest.mark.parametrize("fn", [fn for _, fn in _values_at_cases()],
                             ids=[name for name, _ in _values_at_cases()])
    def test_bit_identical_to_chain(self, fn):
        primes = PRIMES if fn.kind != "tabulated" or fn.default is not None else PRIMES[:2]
        got = fn.values_at(primes)
        want = _chain_values_at(fn, primes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestFacts:
    @pytest.mark.parametrize("name", list(FACTS))
    def test_matches_chain(self, name):
        fn, want = _fact_specs()[name], FACTS[name]
        assert fn.start_prime == want["start_prime"]
        assert fn.value_bound() == want["value_bound"]
        assert fn.nonnegative == want["nonnegative"]
        assert fn.constant_above(50) == want["constant_above"]
        for u in (1, 2, 3, 4):
            closed = want["closed"][u - 1]
            if closed is None:
                with pytest.raises(ClosedFormUnavailable):
                    closed_form_asymptotic(fn, u, 10**6, 4)
            else:
                est = closed_form_asymptotic(fn, u, 10**6, 4)
                assert est.main_term == pytest.approx(closed, rel=1e-12)
                assert est.formula_tag == want["tag"]
            est = integral_asymptotic(fn, u, 10**6, 4)
            got = [est.main_term, est.error_magnitude_1, est.error_magnitude_2]
            assert got == pytest.approx(want["integral"][u - 1], rel=1e-9)
            c = classify_decay(fn, u)
            assert [c.label, c.sign, c.note] == want["classify"][u - 1]

    def test_every_formula_kind_covered(self):
        assert {fn.unscaled()[1].kind for fn in _fact_specs().values()} == set(FORMULAS)


class TestTableInvariants:
    @pytest.mark.parametrize("kind", list(FORMULAS))
    @pytest.mark.parametrize("c", [-1.3, 0.0, 0.7])
    def test_one_sign_past_minimum(self, kind, c):
        formula = FORMULAS[kind]
        past = PRIMES[PRIMES >= formula.minimum].astype(np.float64)
        values = np.broadcast_to(formula.value(past, c), past.shape)
        assert np.all(np.sign(values) == formula.sign(c))

    @pytest.mark.parametrize("kind", list(FORMULAS))
    def test_derivative_matches_difference_quotient(self, kind):
        formula = FORMULAS[kind]
        t, h = 1000.0, 1e-3
        slope = (formula.value(t + h, 0.7) - formula.value(t - h, 0.7)) / (2 * h)
        assert formula.derivative(t, 0.7) == pytest.approx(slope, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("kind", [k for k, f in FORMULAS.items() if f.tag])
    def test_antiderivative_matches_quadrature(self, kind):
        fn = PrimeFunction(kind, c=0.7)
        closed = closed_form_asymptotic(fn, 1, 10**6, 1).main_term
        assert integral_asymptotic(fn, 1, 10**6, 1).main_term == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("kind", list(FORMULAS))
    def test_minimum_start_is_at_least_two(self, kind):
        assert FORMULAS[kind].minimum >= 2
        assert FORMULAS[kind].start >= FORMULAS[kind].minimum
        with pytest.raises(ValueError, match="start prime"):
            PrimeFunction(kind, p0=1)

    def test_structural_kinds_start_at_two(self):
        with pytest.raises(ValueError, match="start prime"):
            PrimeFunction("tabulated", table=((1, 0.5),), default=1.0)
        with pytest.raises(ValueError, match="start prime >= 11"):
            PrimeFunction("scaled", c=2.0, inner=PrimeFunction("one_over_loglog"), p0=5)

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "scaled:-inf:invlog",
                                      "tab:5=nan,default=1", "tab:5=1,default=inf"])
    def test_non_finite_numbers_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_fn(spec)


class TestResolveSpec:
    PROG = Progression(4, 1)

    def test_spec_names(self):
        for kind, formula in FORMULAS.items():
            for name in formula.names:
                spec = name + "0.5" if name.endswith(":") else name
                assert parse_fn(spec).kind == kind

    @pytest.mark.parametrize("spec", ["const", "invloglog:2", "one_over_log", "omega:1"])
    def test_value_only_where_the_name_takes_one(self, spec):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_fn(spec)

    @pytest.mark.parametrize("name,rule", [("omega", STRONG), ("bigomega", COMPLETE),
                                           ("big_omega", COMPLETE), ("omega1", STRONG),
                                           ("half_omega", STRONG), ("invloglog", STRONG)])
    def test_default_rule(self, name, rule):
        assert resolve_spec(name, self.PROG)[1] == rule

    @pytest.mark.parametrize("name", ["omega", "bigomega", "omega1", "half_omega", "const:2"])
    @pytest.mark.parametrize("mode", ["strong", "complete"])
    def test_explicit_mode_applies_to_every_spec(self, name, mode):
        fn, ext = resolve_spec(name, self.PROG, mode)
        assert ext.mode == mode
        assert fn == resolve_spec(name, self.PROG)[0]

    def test_builtins_are_specs(self):
        one = parse_fn("one")
        assert builtin("omega") == (one, STRONG)
        assert builtin("big_omega") == (one, COMPLETE)
        assert builtin("half_omega") == (PrimeFunction("scaled", c=0.5, inner=one), STRONG)
        fn, _ = builtin("omega1", self.PROG)
        assert fn.residue_filter == self.PROG and fn.kind == one.kind

    def test_omega1_needs_a_progression(self):
        with pytest.raises(ValueError, match="progression"):
            resolve_spec("omega1")

    def test_start_prime_override(self):
        fn, _ = resolve_spec("omega1", self.PROG, p0=7)
        assert fn.start_prime == 7 and fn.residue_filter == self.PROG
        with pytest.raises(ValueError, match="start prime"):
            resolve_spec("invloglog", p0=7)
