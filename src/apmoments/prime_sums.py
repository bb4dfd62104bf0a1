"""Exact prime sums over progressions, asymptotic estimates, and probes.

The central quantity is the partial sum of f(p)^u / p over primes p <= x
in a residue class.  Exact values come from the sieve, with block
partials combined by math.fsum; estimates come from the prime-density integral
(1/phi(k)) * integral of g(t)/ln(t), with the two error magnitudes
|g(x)| sqrt(x) ln(x) and integral of |g'(t)| sqrt(t) ln(t) reported
alongside (they are conditional magnitudes, not bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .arith_fn import PrimeFunction, continuous_derivative, continuous_value
from .config import (
    DEFAULT_PROBE_THRESHOLDS,
    PROBE_CHECKPOINTS,
    QUAD_MAX_DEPTH,
    QUAD_REL_TOL,
    ProbeThresholds,
)
from .sieve import Progression, euler_phi, iter_prime_blocks


class QuadratureError(RuntimeError):
    def __init__(self, achieved: float, requested: float):
        super().__init__(
            f"quadrature did not reach relative tolerance {requested:g} "
            f"(achieved ~{achieved:g})"
        )
        self.achieved = achieved
        self.requested = requested


class ClosedFormUnavailable(ValueError):
    """No catalogued closed form for this spec/order; use integral_asymptotic."""


@dataclass(frozen=True)
class PrimeSumResult:
    x: int
    progression: Progression
    u: int
    value: float
    term_count: int
    compensated: bool = True


@dataclass(frozen=True)
class AsymptoticEstimate:
    main_term: float
    error_magnitude_1: float
    error_magnitude_2: float
    formula_tag: str


class DecayCase(Enum):
    CASE1 = 1  # constant C, 0 < |C| <= 1
    CASE2 = 2  # monotone with nonzero limit C
    CASE3 = 3  # decays like C/lnln(p) or slower
    CASE4 = 4  # decays like C/ln(p) or faster; the series converges

    @property
    def label(self) -> str:
        return f"Case{self.value}"


@dataclass(frozen=True)
class Classification:
    case: DecayCase | None
    sign: int  # sign of the limiting/leading constant
    note: str = ""

    @property
    def label(self) -> str:
        return "inconclusive" if self.case is None else self.case.label


@dataclass(frozen=True)
class ProbeResult:
    checkpoints: tuple[int, ...]
    values: tuple[float, ...]
    verdict: str  # converging | diverging | inconclusive
    tail_bound: float | None = None


def prime_power_sum(
    fn: PrimeFunction,
    u: int,
    x: int,
    progression: Progression,
    block_size: int | None = None,
) -> PrimeSumResult:
    """Exact sum of f(p)^u / p over primes p <= x in the progression.

    Each block's terms are added with numpy's pairwise summation and the
    block partials are combined exactly (math.fsum), so the block partition
    moves the result only by the per-block rounding: for terms of one sign,
    a relative error of at most a few tens of ulps, not one final rounding.
    """
    if u < 1:
        raise ValueError(f"order u must be >= 1, got {u}")
    if x < 2:
        raise ValueError(f"limit x must be >= 2, got {x}")
    p0 = fn.start_prime
    parts: list[float] = []
    count = 0
    for block in iter_prime_blocks(x, progression, block_size):
        count += int(np.count_nonzero(block >= p0))
        f = fn.values_at(block)
        if u > 1:
            f = f**u
        parts.append(float(np.sum(f / block)))
    return PrimeSumResult(x, progression, u, math.fsum(parts), count)


# ---------------------------------------------------------------------------
# Quadrature


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = QUAD_REL_TOL,
    max_depth: int = QUAD_MAX_DEPTH,
) -> float:
    """Adaptive Simpson integration with a hard subdivision cap."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(abs(whole), 1e-300)
    worst = [0.0]

    def recurse(a, fa, m, fm, b, fb, whole, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * rel_tol * scale:
            return left + right + delta / 15.0
        if depth >= max_depth:
            worst[0] = max(worst[0], abs(delta) / (15.0 * scale))
            return left + right + delta / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, depth + 1
        )

    result = recurse(a, fa, m, fm, b, fb, whole, 0)
    if worst[0] > 0.0:
        raise QuadratureError(worst[0], rel_tol)
    return result


def _summand(fn: PrimeFunction, u: int) -> Callable[[float], float]:
    # g(t) = f(t)^u / t, the per-prime term as a function of a real t
    h = continuous_value(fn)
    return lambda t: h(t) ** u / t


def _summand_derivative(fn: PrimeFunction, u: int) -> Callable[[float], float]:
    h = continuous_value(fn)
    dh = continuous_derivative(fn)

    def g1(t: float) -> float:
        v = h(t)
        return u * v ** (u - 1) * dh(t) / t - v**u / (t * t)

    return g1


def _error_terms(fn: PrimeFunction, u: int, x: float, rel_tol: float) -> tuple[float, float]:
    p0 = fn.start_prime
    g = _summand(fn, u)
    g1 = _summand_derivative(fn, u)
    err1 = abs(g(x)) * math.sqrt(x) * math.log(x)
    # substitute t = e^s so the integrand decays smoothly on a short interval
    integrand = lambda s: abs(g1(math.exp(s))) * math.exp(1.5 * s) * s
    err2 = adaptive_simpson(integrand, math.log(p0), math.log(x), rel_tol)
    return err1, err2


def integral_asymptotic(
    fn: PrimeFunction,
    u: int,
    x: float,
    k: int,
    rel_tol: float = QUAD_REL_TOL,
) -> AsymptoticEstimate:
    """Estimate the prime sum by (1/phi(k)) * integral of g(t)/ln(t).

    Integration runs from the function's start prime (the difference against a
    lower anchor of 2 is an O(1) shift), on the log-substituted axis where
    g(e^s) e^s / s = f(e^s)^u / s is smooth.
    """
    p0 = fn.start_prime
    if x <= p0:
        raise ValueError(f"x must exceed the start prime {p0}, got {x}")
    h = continuous_value(fn)
    integrand = lambda s: h(math.exp(s)) ** u / s
    integral = adaptive_simpson(integrand, math.log(p0), math.log(x), rel_tol)
    err1, err2 = _error_terms(fn, u, x, rel_tol)
    return AsymptoticEstimate(integral / euler_phi(k), err1, err2, "generic-quadrature")


def closed_form_asymptotic(fn: PrimeFunction, u: int, x: float, k: int) -> AsymptoticEstimate:
    """Catalogued antiderivative forms, anchored at the start prime.

    constant-valued kinds  ->  (C^u/phi(k)) (lnln x - lnln p0)
    one_over_loglog, u=1   ->  (1/phi(k)) (lnlnln x - lnlnln p0)
    sqrt_loglog            ->  (1/phi(k)) ((lnln x)^(u/2+1) - (lnln p0)^(u/2+1)) / (u/2+1)

    Raises ClosedFormUnavailable for anything else.
    """
    phi = euler_phi(k)
    p0 = fn.start_prime
    if x <= p0:
        raise ValueError(f"x must exceed the start prime {p0}, got {x}")

    def resolve(f: PrimeFunction, scale: float) -> tuple[float, str]:
        kind = f.kind
        if kind in ("constant", "indicator_one"):
            c = f.c if kind == "constant" else 1.0
            value = (scale * c**u / phi) * (
                math.log(math.log(x)) - math.log(math.log(p0))
            )
            return value, "mertens"
        if kind == "one_over_loglog" and u == 1:
            value = (scale / phi) * (
                math.log(math.log(math.log(x))) - math.log(math.log(math.log(p0)))
            )
            return value, "lnlnln"
        if kind == "sqrt_loglog":
            e = u / 2.0 + 1.0
            value = (scale / phi) * (
                math.log(math.log(x)) ** e - math.log(math.log(p0)) ** e
            ) / e
            return value, "power-of-loglog"
        if kind == "scaled":
            return resolve(f.inner, scale * f.c**u)
        raise ClosedFormUnavailable(
            f"no catalogued closed form for kind {kind!r} at order {u}; "
            "use integral_asymptotic"
        )

    main, tag = resolve(fn, 1.0)
    err1, err2 = _error_terms(fn, u, x, QUAD_REL_TOL)
    return AsymptoticEstimate(main, err1, err2, tag)


# ---------------------------------------------------------------------------
# Symbolic decay classification


def classify_decay(fn: PrimeFunction, u: int = 1) -> Classification:
    """Assign the catalogued decay case of f(p)^u (symbolic, not numeric).

    Case1: constant; Case2: monotone with nonzero limit; Case3: decays
    like C/lnln(p) or slower (the sum still diverges, triple-log rate);
    Case4: the sum over f^u(p)/p converges.  Orders u >= 2 of the
    lnln-reciprocal kind fall to Case4 because the resulting series
    converges, even though the decay is slower than 1/ln(p).
    """

    def resolve(f: PrimeFunction, scale: float) -> Classification:
        kind = f.kind
        if kind in ("constant", "indicator_one"):
            c = (f.c if kind == "constant" else 1.0) ** u * scale
            if c == 0.0:
                raise ValueError("zero constant has no catalogued decay case")
            return Classification(DecayCase.CASE1, 1 if c > 0 else -1)
        if kind in ("one_minus_one_over_p", "one_minus_one_over_log"):
            return Classification(DecayCase.CASE2, 1 if scale > 0 else -1)
        if kind == "one_over_loglog":
            if u == 1:
                return Classification(DecayCase.CASE3, 1 if scale > 0 else -1)
            return Classification(
                DecayCase.CASE4,
                1 if scale > 0 else -1,
                "order >= 2: series converges despite sub-log decay",
            )
        if kind == "one_over_log":
            return Classification(DecayCase.CASE4, 1 if scale > 0 else -1)
        if kind == "scaled":
            return resolve(f.inner, scale * f.c**u)
        if kind == "sqrt_loglog":
            return Classification(None, 1, "unbounded kind; outside the catalogue")
        return Classification(None, 1, "tabulated kind has no symbolic form")

    return resolve(fn, 1.0)


# ---------------------------------------------------------------------------
# Convergence / divergence probes


def _verdict(values: Sequence[float], thresholds: ProbeThresholds) -> str:
    if len(values) < 3:
        return "inconclusive"
    v = list(values)
    d = [v[i + 1] - v[i] for i in range(len(v) - 1)]
    signs = {1 if x > 0 else -1 for x in d if x != 0.0}
    if len(signs) > 1:
        return "inconclusive"
    if abs(v[-1]) >= thresholds.growth_factor * abs(v[-3]) and abs(v[-3]) > 0:
        return "diverging"
    last, prev = abs(d[-1]), abs(d[-2])
    if last == 0.0:
        return "converging"
    if prev == 0.0:
        return "inconclusive"
    r = last / prev
    if r >= thresholds.max_ratio:
        return "diverging"
    tail = last * r / (1.0 - r)
    if tail <= thresholds.tail_fraction * abs(v[-1]):
        return "converging"
    return "diverging"


_SERIES = {
    # name -> (term(p array) -> array, minimum start prime)
    "inv_p_squared": (lambda p: 1.0 / (p * p), 2),
    "inv_p_log2p": (lambda p: 1.0 / (p * np.log(p) ** 2), 2),
    "inv_p_logp": (lambda p: 1.0 / (p * np.log(p)), 3),
}


def _series_tail_bound(name: str, x: int, k: int) -> float | None:
    # integral comparison against the residue class of density 1/k
    if name == "inv_p_squared":
        return 1.0 / (k * x) + 1.0 / x**2
    if name == "inv_p_log2p":
        return 1.0 / (k * math.log(x)) + 1.0 / (x * math.log(x) ** 2)
    return None


def convergence_probe(
    series: str,
    progression: Progression,
    checkpoints: Sequence[int] = PROBE_CHECKPOINTS,
    custom: tuple[PrimeFunction, int] | None = None,
    thresholds: ProbeThresholds = DEFAULT_PROBE_THRESHOLDS,
) -> ProbeResult:
    """Partial sums of a catalogued series (or custom f^u/p) at checkpoints.

    series is one of inv_p_squared | inv_p_log2p | inv_p_logp | custom.
    """
    cps = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if series == "custom":
        if custom is None:
            raise ValueError("custom series needs (fn, u)")
        fn, u = custom
        term = None
        p_min = fn.start_prime
    else:
        if series not in _SERIES:
            raise ValueError(f"unknown series {series!r}")
        term, p_min = _SERIES[series]

    parts: list[float] = []
    sums: list[float] = []
    boundary = 0
    done = 0.0
    for cp in cps:
        for block in iter_prime_blocks(cp, progression):
            block = block[block > boundary]
            if block.size == 0:
                continue
            block = block[block >= p_min]
            if block.size == 0:
                continue
            if term is not None:
                parts.append(float(np.sum(term(block.astype(np.float64)))))
            else:
                f = fn.values_at(block)
                if u > 1:
                    f = f**u
                parts.append(float(np.sum(f / block)))
        boundary = cp
        done = math.fsum(parts)
        sums.append(done)

    verdict = _verdict(sums, thresholds)
    tail = None
    if series != "custom":
        tail = _series_tail_bound(series, cps[-1], progression.modulus)
    return ProbeResult(tuple(cps), tuple(sums), verdict, tail)


def divergence_probe(
    fn: PrimeFunction,
    u: int,
    checkpoints: Sequence[int] = PROBE_CHECKPOINTS,
    thresholds: ProbeThresholds = DEFAULT_PROBE_THRESHOLDS,
    rel_tol: float = QUAD_REL_TOL,
) -> ProbeResult:
    """Evaluate I(n) = integral of t g'(t)/ln(t) from p0 to each checkpoint.

    An unbounded |I| is the divergence side of the catalogued necessary
    condition; the verdict applies the declared growth/tail heuristics to
    the checkpoint values.
    """
    cps = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    p0 = fn.start_prime
    if cps[0] <= p0:
        raise ValueError(f"first checkpoint must exceed the start prime {p0}")
    g1 = _summand_derivative(fn, u)
    integrand = lambda s: g1(math.exp(s)) * math.exp(2.0 * s) / s

    values: list[float] = []
    acc = 0.0
    lo = math.log(p0)
    for cp in cps:
        hi = math.log(cp)
        acc += adaptive_simpson(integrand, lo, hi, rel_tol)
        values.append(acc)
        lo = hi
    return ProbeResult(tuple(cps), tuple(values), _verdict(values, thresholds))
