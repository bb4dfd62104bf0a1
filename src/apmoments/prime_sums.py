"""Exact prime sums over progressions, asymptotic estimates, and probes.

The central quantity is the partial sum of f(p)^u / p over primes p <= x
in a residue class, or over every p not dividing the modulus (the readings
of counting.mode_source; at u = 1 the mean predictions of `moments` and
`compare`).  Exact values come from the sieve, with block
partials combined by math.fsum; where f is one constant c on the primes
past y, the floor value of x at or just above 10^6, the sieve stops at y
and the primes past it are counted by class (counting.counted_tail, the
rule the model's passes share).  Estimates come from the prime-density integral
(1/phi(k)) * integral of g(t)/ln(t), with the two error magnitudes
|g(x)| sqrt(x) ln(x) and integral of |g'(t)| sqrt(t) ln(t) reported
alongside (they are conditional magnitudes, not bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import counting
from .arith_fn import DecayCase, PrimeFunction
from .config import PROBE_CHECKPOINTS, PROBE_GROWTH_FACTOR, PROBE_MAX_RATIO, PROBE_TAIL_FRACTION
from .config import QUAD_MAX_DEPTH, QUAD_REL_TOL
from .sieve import Progression, euler_phi, map_prime_blocks


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
    fn: PrimeFunction, u: int, x: int, progression: Progression, mode: str = "restricted"
) -> PrimeSumResult:
    """Exact sum of f(p)^u / p over primes p <= x in the progression (mode
    "restricted"), or over every prime p <= x not dividing its modulus
    (mode "density"; counting.mode_source).

    Each block's terms are added with numpy's pairwise summation and the
    block partials are combined exactly (math.fsum), so the block partition
    moves the result only by the per-block rounding: for terms of one sign,
    a relative error of at most a few tens of ulps, not one final rounding.
    The partials come from sieve.map_prime_blocks, which may split a
    streamed pass across CPUs into the serial blocks, so the sum does not
    depend on the split.

    On the counted route (counting.counted_tail) the sieve stops at y, and
    the primes y < p <= x of the reading, where f = c, add c^u P_1 (P_1
    the sum of their 1/p) and their count, both from counting.tail_sums,
    which keeps every class's numbers for the next call at the same x.
    The term count is every prime >= p0 of the reading either way, and the
    routes agree within a few ulps (tested at 1e-14 relative, late starts
    included).
    On a 2 vCPU Xeon the tables mod 4 take 0.06 s at 4e8 (the streamed
    sieve of one class: 0.34 s on one CPU; 0.28-0.33 s split across both,
    against 0.48-0.58 s on one in the same runs), 0.56 s at 10^10, 2.4 s
    at 10^11 and 13 s at 10^12 (process peaks 36, 45, 67 and 129 MiB).
    """
    if u < 1:
        raise ValueError(f"order u must be >= 1, got {u}")
    if x < 2:
        raise ValueError(f"limit x must be >= 2, got {x}")
    source, cut = counting.mode_source(progression, mode)
    limit, c, count, (reciprocals,) = counting.counted_tail(fn, progression, x, mode)
    scale = np.float64(c) ** u  # inf past the float range, like the sieve's f**u
    p0 = fn.start_prime

    def per_block(block: np.ndarray) -> tuple[int, float]:
        block = cut(block)
        f = fn.values_at(block)
        if u > 1:
            f = f**u
        return int(np.count_nonzero(block >= p0)), float(np.sum(f / block))

    blocks = map_prime_blocks(limit, source, per_block)
    count += sum(n for n, _ in blocks)
    value = math.fsum([float(scale * reciprocals), *(s for _, s in blocks)])
    return PrimeSumResult(x, progression, u, value, count)


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


def _continuous(fn: PrimeFunction) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """f and f' as functions of a real t, from the kinds table (no start/filter masking)."""
    if fn.formula is None:
        raise ValueError(f"kind {fn.kind!r} has no continuous form")
    value, derivative, c = fn.formula.value, fn.formula.derivative, fn.c
    return (lambda t: c * float(value(t))), (lambda t: c * float(derivative(t)))


def _summand_derivative(fn: PrimeFunction, u: int) -> Callable[[float], float]:
    h, dh = _continuous(fn)

    def g1(t: float) -> float:
        v = h(t)
        return u * v ** (u - 1) * dh(t) / t - v**u / (t * t)

    return g1


def _error_terms(fn: PrimeFunction, u: int, x: float) -> tuple[float, float]:
    p0 = fn.start_prime
    h, _ = _continuous(fn)
    g1 = _summand_derivative(fn, u)
    err1 = abs(h(x) ** u / x) * math.sqrt(x) * math.log(x)  # |g(x)|, g(t) = f(t)^u / t
    # substitute t = e^s so the integrand decays smoothly on a short interval
    integrand = lambda s: abs(g1(math.exp(s))) * math.exp(1.5 * s) * s
    err2 = adaptive_simpson(integrand, math.log(p0), math.log(x))
    return err1, err2


def integral_asymptotic(fn: PrimeFunction, u: int, x: float, k: int) -> AsymptoticEstimate:
    """Estimate the prime sum by (1/phi(k)) * integral of g(t)/ln(t).

    Integration runs from the function's start prime (the difference against a
    lower anchor of 2 is an O(1) shift), on the log-substituted axis where
    g(e^s) e^s / s = f(e^s)^u / s is smooth.
    """
    p0 = fn.start_prime
    if x <= p0:
        raise ValueError(f"x must exceed the start prime {p0}, got {x}")
    h, _ = _continuous(fn)
    integrand = lambda s: h(math.exp(s)) ** u / s
    integral = adaptive_simpson(integrand, math.log(p0), math.log(x))
    err1, err2 = _error_terms(fn, u, x)
    return AsymptoticEstimate(integral / euler_phi(k), err1, err2, "generic-quadrature")


def closed_form_asymptotic(fn: PrimeFunction, u: int, x: float, k: int) -> AsymptoticEstimate:
    """The kinds table's antiderivative F of f^u/(t ln t), anchored at the start prime.

    For f = c * g with g a formula kind: (c^u/phi(k)) (G(x) - G(p0)), e.g.
    Mertens' lnln for the constant kind, lnlnln for 1/lnln p at u = 1 and
    (lnln)^(u/2+1)/(u/2+1) for sqrt(lnln p).  Raises ClosedFormUnavailable
    where the table has none.
    """
    p0 = fn.start_prime
    if x <= p0:
        raise ValueError(f"x must exceed the start prime {p0}, got {x}")
    high = None if fn.formula is None else fn.formula.antiderivative(x, u)
    if high is None:
        raise ClosedFormUnavailable(
            f"no catalogued closed form for kind {fn.kind!r} at order {u}; "
            "use integral_asymptotic"
        )
    main = (fn.c**u / euler_phi(k)) * (high - fn.formula.antiderivative(p0, u))
    err1, err2 = _error_terms(fn, u, x)
    return AsymptoticEstimate(main, err1, err2, fn.formula.tag)


# ---------------------------------------------------------------------------
# Symbolic decay classification


def classify_decay(fn: PrimeFunction, u: int = 1) -> Classification:
    """The kinds table's decay case of f(p)^u (symbolic, not numeric).

    Case1: constant; Case2: monotone with nonzero limit; Case3: decays
    like C/lnln(p) or slower (the sum still diverges, triple-log rate);
    Case4: the sum over f^u(p)/p converges.  Orders u >= 2 of the
    lnln-reciprocal kind fall to Case4 because the resulting series
    converges, even though the decay is slower than 1/ln(p).  A zero
    function has no case.  Orders below 1 are rejected.
    """
    if u < 1:
        raise ValueError(f"order u must be >= 1, got {u}")
    if fn.formula is None:
        return Classification(None, 1, f"{fn.kind} kind has no symbolic form")
    lead = fn.c * fn.formula.sign
    if lead == 0.0:
        raise ValueError("zero function has no catalogued decay case")
    case, note = fn.formula.case(u)
    sign = (1 if lead > 0 else -1) ** u if case is not None else 1
    return Classification(case, sign, note)


# ---------------------------------------------------------------------------
# Convergence / divergence probes


def _verdict(values: Sequence[float]) -> str:
    if len(values) < 3:
        return "inconclusive"
    v = list(values)
    d = [v[i + 1] - v[i] for i in range(len(v) - 1)]
    signs = {1 if x > 0 else -1 for x in d if x != 0.0}
    if len(signs) > 1:
        return "inconclusive"
    if abs(v[-1]) >= PROBE_GROWTH_FACTOR * abs(v[-3]) and abs(v[-3]) > 0:
        return "diverging"
    last, prev = abs(d[-1]), abs(d[-2])
    if last == 0.0:
        return "converging"
    if prev == 0.0:
        return "inconclusive"
    r = last / prev
    if r >= PROBE_MAX_RATIO:
        return "diverging"
    tail = last * r / (1.0 - r)
    if tail <= PROBE_TAIL_FRACTION * abs(v[-1]):
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
        term, p_min = (lambda p: fn.values_at(p) ** u / p), fn.start_prime
    else:
        if series not in _SERIES:
            raise ValueError(f"unknown series {series!r}")
        of_float, p_min = _SERIES[series]
        term = lambda p: of_float(p.astype(np.float64))

    # one pass to the last checkpoint, each block split at the checkpoints
    def per_block(block: np.ndarray) -> list[tuple[int, float]]:
        """(checkpoint index, sum over a piece) per nonempty piece."""
        block = block[block >= p_min]
        cuts = np.searchsorted(block, cps, side="right").tolist()
        return [(i, float(np.sum(term(block[a:b]))))
                for i, (a, b) in enumerate(zip([0, *cuts], cuts)) if a < b]

    parts = [piece for pieces in map_prime_blocks(cps[-1], progression, per_block)
             for piece in pieces]
    sums = [math.fsum(s for j, s in parts if j <= i) for i in range(len(cps))]

    verdict = _verdict(sums)
    tail = None
    if series != "custom":
        tail = _series_tail_bound(series, cps[-1], progression.modulus)
    return ProbeResult(tuple(cps), tuple(sums), verdict, tail)


def divergence_probe(
    fn: PrimeFunction,
    u: int,
    checkpoints: Sequence[int] = PROBE_CHECKPOINTS,
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
        acc += adaptive_simpson(integrand, lo, hi)
        values.append(acc)
        lo = hi
    return ProbeResult(tuple(cps), tuple(values), _verdict(values))
