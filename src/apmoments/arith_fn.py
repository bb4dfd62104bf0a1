"""Declarative prime-function specs and additive evaluation.

A :class:`PrimeFunction` fixes the value at primes; an :class:`Extension`
fixes the value at every prime power (strongly additive, completely
additive, or either with a finite table of prime-power overrides).  The
number-of-distinct-prime-divisors function, its with-multiplicity variant,
the residue-class-restricted variant, and the half-weight variant are all
built from these two pieces.

Bulk evaluation over progression members reads an additive function as one
table of increments f(p^a) - f(p^(a-1)), one row per prime power: every
member divisible by p^a gains the increment of that row, so the members
divisible exactly by p^a end up with f(p^a) whatever the rule behind it.
The rows also multiply up the part of each member they cover; a member
that part falls short of has one prime factor q above sqrt(n) left,
worth f(q).  When f is one constant on every prime above sqrt(n)
(:meth:`PrimeFunction.constant_above`), that value needs no q at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import MEMBER_BLOCK
from .sieve import Progression, factorize, primes_upto_monolithic

KINDS = (
    "constant",
    "one_over_loglog",
    "one_over_log",
    "sqrt_loglog",
    "one_minus_one_over_p",
    "one_minus_one_over_log",
    "indicator_one",
    "scaled",
    "tabulated",
)

# Default start primes.  Values at primes below the start are 0, which
# leaves every downstream sum identical to a sum truncated at the start.
_DEFAULT_START = {
    "constant": 2,
    "indicator_one": 2,
    "one_over_loglog": 11,
    "one_over_log": 3,
    "sqrt_loglog": 3,
    "one_minus_one_over_p": 2,
    "one_minus_one_over_log": 3,
    "tabulated": 2,
}

# Hard lower bounds per kind: log log p must exceed 0/1 style constraints.
_MIN_START = {
    "one_over_loglog": 11,
    "one_over_log": 3,
    "sqrt_loglog": 3,
    "one_minus_one_over_log": 3,
}


class TabulatedLookupError(LookupError):
    """A tabulated function was evaluated at a prime it has no entry for."""


@dataclass(frozen=True)
class PrimeFunction:
    """Value of an arithmetic function at primes.

    Parameters
    ----------
    kind : str
        One of :data:`KINDS`.
    c : float
        Constant value (kind="constant") or scale factor (kind="scaled").
    inner : PrimeFunction, optional
        Wrapped spec for kind="scaled".
    table : tuple of (prime, value), optional
        Entries for kind="tabulated".
    default : float, optional
        Fallback for tabulated lookups; without it a missing prime raises.
    p0 : int, optional
        Start prime; primes below contribute 0.  Kind default when None.
    residue_filter : Progression, optional
        When set, primes outside the residue class contribute 0 (used by
        the restricted prime-divisor counter).
    """

    kind: str
    c: float = 1.0
    inner: "PrimeFunction | None" = None
    table: tuple[tuple[int, float], ...] | None = None
    default: float | None = None
    p0: int | None = None
    residue_filter: Progression | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "scaled" and self.inner is None:
            raise ValueError("scaled kind requires an inner spec")
        if self.kind == "tabulated" and not self.table:
            raise ValueError("tabulated kind requires a non-empty table")
        minimum = _MIN_START.get(self.kind)
        if minimum is not None and self.p0 is not None and self.p0 < minimum:
            raise ValueError(
                f"kind {self.kind} requires start prime >= {minimum}, got {self.p0}"
            )

    @property
    def start_prime(self) -> int:
        if self.p0 is not None:
            return self.p0
        if self.kind == "scaled":
            return self.inner.start_prime
        if self.kind == "tabulated":
            return min(p for p, _ in self.table)
        return _DEFAULT_START[self.kind]

    @property
    def nonnegative(self) -> bool:
        if self.kind == "constant":
            return self.c >= 0
        if self.kind == "scaled":
            return self.inner.nonnegative if self.c >= 0 else False
        if self.kind == "tabulated":
            vals = [v for _, v in self.table]
            if self.default is not None:
                vals.append(self.default)
            return all(v >= 0 for v in vals)
        return True  # remaining kinds are nonnegative past their start prime

    def value_bound(self) -> float | None:
        """Supremum of |f(p)| over p >= start prime, None if unbounded."""
        p0 = self.start_prime
        if self.kind == "constant":
            return abs(self.c)
        if self.kind == "indicator_one":
            return 1.0
        if self.kind == "one_over_loglog":
            return 1.0 / math.log(math.log(p0))
        if self.kind == "one_over_log":
            return 1.0 / math.log(p0)
        if self.kind == "sqrt_loglog":
            return None
        if self.kind == "one_minus_one_over_p":
            return 1.0
        if self.kind == "one_minus_one_over_log":
            return max(abs(1.0 - 1.0 / math.log(p0)), 1.0)
        if self.kind == "scaled":
            inner = self.inner.value_bound()
            return None if inner is None else abs(self.c) * inner
        vals = [abs(v) for _, v in self.table]
        if self.default is not None:
            vals.append(abs(self.default))
        return max(vals)

    @property
    def bounded_by_one(self) -> bool:
        bound = self.value_bound()
        return bound is not None and bound <= 1.0 + 1e-15

    def constant_above(self, x: int) -> float | None:
        """c when f(p) = c for every prime p > x, else None.

        A property of the spec alone: constant and indicator specs (and
        scaled ones of those) that start by x + 1 and have no residue
        filter, and tabulated specs with a default and every key <= x.
        """
        if self.start_prime > x + 1:
            return None
        if self.residue_filter is not None and not self.residue_filter.is_full:
            return None
        if self.kind == "constant":
            return self.c
        if self.kind == "indicator_one":
            return 1.0
        if self.kind == "scaled":
            inner = self.inner.constant_above(x)
            return None if inner is None else self.c * inner
        if self.kind == "tabulated" and self.default is not None:
            if max(p for p, _ in self.table) <= x:
                return self.default
        return None

    def values_at(self, primes: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorized f(p) for an array of primes (0 below start / off-class)."""
        p_int = np.asarray(primes, dtype=np.int64)
        p = p_int.astype(np.float64)
        # entries below the start prime are masked to 0 at the end; clip the
        # formula input so they never produce NaN on the way there
        pc = np.maximum(p, float(self.start_prime))
        kind = self.kind
        if kind == "constant":
            vals = np.full(p.shape, self.c)
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
            vals = self.c * self.inner.values_at(p_int)
        else:  # tabulated
            lookup = dict(self.table)
            keys = np.array(sorted(lookup), dtype=np.int64)
            pos = np.minimum(np.searchsorted(keys, p_int), keys.size - 1)
            hit = keys[pos] == p_int
            missing = ~hit & (p_int >= self.start_prime)
            if self.default is None and np.any(missing):
                raise TabulatedLookupError(
                    f"no table entry (and no default) for prime {int(p_int[missing][0])}"
                )
            table_vals = np.array([lookup[q] for q in keys.tolist()])
            vals = np.where(hit, table_vals[pos], self.default or 0.0)
        vals = np.where(p_int < self.start_prime, 0.0, vals)
        if self.residue_filter is not None and not self.residue_filter.is_full:
            k, l = self.residue_filter.modulus, self.residue_filter.residue
            vals = np.where(p_int % k == l, vals, 0.0)
        return vals


def eval_at_prime(fn: PrimeFunction, p: int) -> float:
    """f(p) for a single prime; 0 below the start prime."""
    return float(fn.values_at(np.array([p], dtype=np.int64))[0])


@dataclass(frozen=True)
class Extension:
    """Prime-power rule: f(p^a) = f(p) ("strong") or a*f(p) ("complete").

    A finite overrides table ((p, a) -> value) replaces individual
    prime-power values on top of the base mode; the table being finite is
    what keeps an overridden function in the same limit-law family as its
    base.  The member sweep sees the rule only through the increments
    f(p^a) - f(p^(a-1)), so an override is one more table value and not a
    separate pass.
    """

    mode: str = "strong"
    overrides: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("strong", "complete"):
            raise ValueError(f"extension mode must be strong|complete, got {self.mode!r}")
        for (p, a), _ in self.overrides:
            if p < 2 or a < 1 or factorize(p) != [(p, 1)]:
                raise ValueError(f"invalid override position ({p}, {a})")

    @property
    def override_map(self) -> dict[tuple[int, int], float]:
        return dict(self.overrides)

    @property
    def is_strongly_additive(self) -> bool:
        return self.mode == "strong" and not self.overrides

    def base_value(self, a: int, fp: float) -> float:
        """f(p^a) by the mode alone, given f(p) = fp."""
        return fp if self.mode == "strong" else a * fp

    def power_value(self, p: int, a: int, fp: float) -> float:
        """f(p^a) given f(p) = fp: the override if one is set, else the mode's rule."""
        return self.override_map.get((p, a), self.base_value(a, fp))


STRONG = Extension("strong")
COMPLETE = Extension("complete")


def eval_additive(
    fn: PrimeFunction, ext: Extension, factorization: Iterable[tuple[int, int]]
) -> float:
    """Sum of prime-power values over a factorization (0 for the empty one)."""
    return sum(ext.power_value(p, a, eval_at_prime(fn, p)) for p, a in factorization)


@dataclass(frozen=True)
class FunctionPair:
    """A strongly additive reference function and a compared function."""

    f_star: tuple[PrimeFunction, Extension]
    f: tuple[PrimeFunction, Extension]
    declared_class: str  # "H" | "V"

    def __post_init__(self) -> None:
        if self.declared_class not in ("H", "V"):
            raise ValueError("declared_class must be 'H' or 'V'")


def builtin(name: str, progression: Progression | None = None) -> tuple[PrimeFunction, Extension]:
    """Canonical built-in functions by name.

    omega        distinct prime divisors
    big_omega    prime divisors with multiplicity
    omega1       distinct prime divisors lying in the given residue class
    half_omega   omega scaled by 0.5
    """
    key = name.lower()
    if key in ("omega", "w"):
        return PrimeFunction("indicator_one"), STRONG
    if key in ("big_omega", "bigomega", "capital_omega"):
        return PrimeFunction("indicator_one"), COMPLETE
    if key == "omega1":
        if progression is None:
            raise ValueError("omega1 needs a progression for its residue filter")
        return PrimeFunction("indicator_one", residue_filter=progression), STRONG
    if key == "half_omega":
        return (
            PrimeFunction("scaled", c=0.5, inner=PrimeFunction("indicator_one")),
            STRONG,
        )
    raise ValueError(f"unknown builtin {name!r}")


def parse_fn(text: str) -> PrimeFunction:
    """Parse the CLI spec syntax, e.g. const:0.7, invloglog, scaled:-1:invloglog."""
    head, _, rest = text.partition(":")
    head = head.lower()
    if head in ("const", "constant"):
        return PrimeFunction("constant", c=float(rest))
    if head == "invloglog":
        return PrimeFunction("one_over_loglog")
    if head == "invlog":
        return PrimeFunction("one_over_log")
    if head == "sqrtloglog":
        return PrimeFunction("sqrt_loglog")
    if head in ("one_minus_inv_p", "oneminusinvp"):
        return PrimeFunction("one_minus_one_over_p")
    if head in ("one_minus_inv_log", "oneminusinvlog"):
        return PrimeFunction("one_minus_one_over_log")
    if head in ("one", "indicator_one", "omega"):
        return PrimeFunction("indicator_one")
    if head == "scaled":
        factor, _, inner = rest.partition(":")
        return PrimeFunction("scaled", c=float(factor), inner=parse_fn(inner))
    if head == "tab":
        entries = {}
        default = None
        for item in rest.split(","):
            lhs, _, rhs = item.partition("=")
            if lhs.strip() == "default":
                default = float(rhs)
            else:
                entries[int(lhs)] = float(rhs)
        return PrimeFunction(
            "tabulated", table=tuple(sorted(entries.items())), default=default
        )
    raise ValueError(f"cannot parse function spec {text!r}")


# ---------------------------------------------------------------------------
# Continuous forms, for quadrature against the density of primes


def continuous_value(fn: PrimeFunction) -> Callable[[float], float]:
    """The kind's formula as a function of a real t (no start/filter masking)."""
    kind = fn.kind
    if kind == "constant":
        c = fn.c
        return lambda t: c
    if kind == "indicator_one":
        return lambda t: 1.0
    if kind == "one_over_loglog":
        return lambda t: 1.0 / math.log(math.log(t))
    if kind == "one_over_log":
        return lambda t: 1.0 / math.log(t)
    if kind == "sqrt_loglog":
        return lambda t: math.sqrt(math.log(math.log(t)))
    if kind == "one_minus_one_over_p":
        return lambda t: 1.0 - 1.0 / t
    if kind == "one_minus_one_over_log":
        return lambda t: 1.0 - 1.0 / math.log(t)
    if kind == "scaled":
        g = continuous_value(fn.inner)
        c = fn.c
        return lambda t: c * g(t)
    raise ValueError(f"kind {kind!r} has no continuous form")


def continuous_derivative(fn: PrimeFunction) -> Callable[[float], float]:
    """d/dt of the continuous form, catalogued per kind."""
    kind = fn.kind
    if kind in ("constant", "indicator_one"):
        return lambda t: 0.0
    if kind == "one_over_loglog":
        return lambda t: -1.0 / (t * math.log(t) * math.log(math.log(t)) ** 2)
    if kind == "one_over_log":
        return lambda t: -1.0 / (t * math.log(t) ** 2)
    if kind == "sqrt_loglog":
        return lambda t: 1.0 / (2.0 * t * math.log(t) * math.sqrt(math.log(math.log(t))))
    if kind == "one_minus_one_over_p":
        return lambda t: 1.0 / (t * t)
    if kind == "one_minus_one_over_log":
        return lambda t: 1.0 / (t * math.log(t) ** 2)
    if kind == "scaled":
        g = continuous_derivative(fn.inner)
        c = fn.c
        return lambda t: c * g(t)
    raise ValueError(f"kind {kind!r} has no catalogued derivative")


# ---------------------------------------------------------------------------
# Bulk evaluation over progression members


def _residue_for(start: int, step: int, modulus: int) -> int:
    # smallest t >= 0 with start + t*step == 0 (mod modulus); caller ensures
    # gcd(step, modulus) == 1
    inv = pow(step, -1, modulus)
    return (-start * inv) % modulus


def _increment_table(
    specs: Sequence[tuple[PrimeFunction, Extension]], progression: Progression, n: int
) -> list[tuple[int, int, int, list[float]]]:
    """Rows (p, p^a, first member index divisible by p^a, increment per spec).

    One row per prime power p^a <= n with p coprime to the modulus and p
    either at most sqrt(n) or carrying an override; a spec's increment is
    f(p^a) - f(p^(a-1)).  Rows ascend in p, then in a.
    """
    k, start = progression.modulus, progression.first_member
    candidates = {int(p) for p in primes_upto_monolithic(math.isqrt(n))}
    candidates.update(p for _, ext in specs for p, _ in ext.override_map if p <= n)
    primes = np.array(sorted(p for p in candidates if k % p), dtype=np.int64)
    f_at = [fn.values_at(primes) for fn, _ in specs]
    rows = []
    for j, p in enumerate(primes.tolist()):
        prev = [0.0] * len(specs)
        a, pa = 1, p
        while pa <= n:
            cur = [ext.power_value(p, a, float(f[j])) for (_, ext), f in zip(specs, f_at)]
            rows.append((p, pa, _residue_for(start, k, pa), [c - q for c, q in zip(cur, prev)]))
            prev = cur
            a, pa = a + 1, pa * p
    return rows


def iter_progression_values(
    specs: Sequence[tuple[PrimeFunction, Extension]],
    progression: Progression,
    n: int,
    block_members: int = MEMBER_BLOCK,
) -> Iterator[list[np.ndarray]]:
    """Evaluate additive functions over all progression members up to n.

    Yields, per block of members, one float64 array per spec.  One table of
    prime-power increments serves every spec (see :func:`_increment_table`).
    The members form an arithmetic sequence with step coprime to p, so the
    multiples of p^a among them sit on one stride of the member index: each
    row adds its increments on that stride and multiplies p into the
    member's found part there.  A member whose found part falls short of it
    has exactly one prime factor q above sqrt(n) left.  A spec that is one
    constant c on those primes adds c there; any other spec gets f(q), with
    q = member // found computed once, on the leftovers only.
    """
    total = progression.count(n)
    if total == 0:
        return
    start = progression.first_member
    k = progression.modulus
    rows = _increment_table(specs, progression, n)
    constants = [fn.constant_above(math.isqrt(n)) for fn, _ in specs]

    for t_lo in range(0, total, block_members):
        size = min(block_members, total - t_lo)
        members = np.arange(start + k * t_lo, start + k * (t_lo + size), k, dtype=np.int64)
        found = np.ones(size, dtype=np.int64)
        vals = [np.zeros(size) for _ in specs]

        for p, pa, t0, deltas in rows:
            off = (t0 - t_lo) % pa
            if off >= size:
                continue
            found[off::pa] *= p
            for v, d in zip(vals, deltas):
                if d != 0.0:
                    v[off::pa] += d

        big = found < members
        if np.any(big):
            if None in constants:
                leftovers = members[big] // found[big]
            for v, (fn, _), c in zip(vals, specs, constants):
                if c is None:
                    fv = fn.values_at(leftovers)
                    if np.any(fv):
                        v[big] += fv
                elif c != 0.0:
                    v += c * big

        yield vals


def collect_values(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n: int,
    block_members: int = MEMBER_BLOCK,
) -> np.ndarray:
    """f over all members up to n as one float64 array, filled block by block."""
    values = np.empty(progression.count(n))
    blocks = iter_progression_values([(fn, ext)], progression, n, block_members)
    for i, (block,) in enumerate(blocks):
        values[i * block_members : i * block_members + block.size] = block
    return values
