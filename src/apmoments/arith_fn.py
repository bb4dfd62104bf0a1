"""Declarative prime-function specs and additive evaluation.

A :class:`PrimeFunction` fixes the value at primes; an :class:`Extension`
fixes the value at every prime power (strongly additive, completely
additive, or either with a finite table of prime-power overrides).  The
number-of-distinct-prime-divisors function, its with-multiplicity variant,
the residue-class-restricted variant, and the half-weight variant are all
built from these two pieces.

Every spec is f(p) = c * g(p): its kind names the shape g and c is
always its factor.  Everything known about a formula shape (its formula
and derivative, start primes, bound, decay case and closed form) is one
entry of :data:`FORMULAS`; ``tabulated``, a finite table of values, is
the one other shape.  :func:`resolve_spec` turns spec text, built-in
names included, into a function and its prime-power rule.

Bulk evaluation over progression members reads an additive function as one
table of increments f(p^a) - f(p^(a-1)), one row per prime power: every
member divisible by p^a gains the increment of that row, so the members
divisible exactly by p^a end up with f(p^a) whatever the rule behind it.
A row of a prime up to the square root of the block length is a strided
update; the rows past it hit few members per block and run together as
one index pass per block.  The smallest strided rows, whose p^a multiply
to a period W of at most a piece (:func:`pattern_rows`), are laid down
once per sweep as a pre-sieve pattern of W members (the found part and
every column), as the sieve pre-sieves its segments; each block starts
as that pattern tiled from its phase, and those rows leave the strided
loop.  The rows also multiply up the part of each
member they cover (the found part, uint32 when n < 2^32); a member that
part falls short of has one prime factor q above sqrt(n) left, worth
f(q), which is priced on the whole block as f(member // found): that is
1 or q, and f(1) = 0.  When f is one constant c on every prime above
sqrt(n) (:meth:`PrimeFunction.constant_above`), that value needs no q.
When every increment is also an integer multiple of c (a lattice spec),
the sweep can add integer lattice indices instead of floats: int8, or
int16 (wider only for huge table entries) when floor(log2 n) rows times
the largest row index, plus one, passes 127.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import MEMBER_BLOCK
from .sieve import Progression, _fill_pattern, is_prime, primes_upto_monolithic


class DecayCase(Enum):
    CASE1 = 1  # constant C != 0
    CASE2 = 2  # monotone with nonzero limit C
    CASE3 = 3  # decays like C/lnln(p) or slower
    CASE4 = 4  # decays like C/ln(p) or faster; the series converges

    @property
    def label(self) -> str:
        return f"Case{self.value}"


@dataclass(frozen=True)
class Formula:
    """Everything catalogued about one shape g of f(p) = c * g(p).

    The factor c belongs to the spec (:class:`PrimeFunction`), never to
    the formula.  value and derivative are numpy expressions in t:
    values_at applies them to arrays of primes (value in place, into
    `out`), the quadrature to floats and ints.  bound and antiderivative
    are evaluated at single points.  Every formula keeps, on all
    p >= minimum, the sign of its value at minimum.
    """

    value: Callable[..., Any]  # g(t, out=None)
    derivative: Callable[[Any], Any]  # g'(t)
    bound: Callable[[int], float | None]  # sup |g(p)| over p >= p0, None if unbounded
    case: Callable[[int], tuple[DecayCase | None, str]]  # decay case of g^u and a note
    # G(t) with G'(t) = g(t)^u / (t ln t), None at orders without a closed form
    antiderivative: Callable[[float, int], float | None] = lambda t, u: None
    tag: str = ""  # formula tag of the closed form
    names: tuple[str, ...] = ()  # spec names; one ending in ":" takes c after it
    start: int = 2  # default start prime
    minimum: int = 2  # smallest allowed start prime

    @property
    def sign(self) -> float:
        """Sign of g(p) on every prime past the minimum start."""
        return float(np.sign(self.value(self.minimum)))


def _lnln(t: float) -> float:
    return math.log(math.log(t))


FORMULAS: dict[str, Formula] = {
    "constant": Formula(
        # t / t is 1.0 on t > 0, so the constant kind also fills `out`
        value=lambda t, out=None: np.divide(t, t, out=out),
        derivative=lambda t: 0.0,
        bound=lambda p0: 1.0,
        case=lambda u: (DecayCase.CASE1, ""),
        antiderivative=lambda t, u: _lnln(t),
        tag="mertens",
        names=("const:", "constant:", "one", "indicator_one", "omega"),
    ),
    "one_over_loglog": Formula(
        value=lambda t, out=None: np.divide(1.0, np.log(np.log(t, out=out), out=out), out=out),
        derivative=lambda t: -1.0 / (t * np.log(t) * np.log(np.log(t)) ** 2),
        bound=lambda p0: 1.0 / _lnln(p0),
        case=lambda u: (DecayCase.CASE3, "") if u == 1 else (
            DecayCase.CASE4, "order >= 2: series converges despite sub-log decay"),
        antiderivative=lambda t, u: math.log(_lnln(t)) if u == 1 else None,
        tag="lnlnln",
        names=("invloglog",),
        start=11,
        minimum=11,
    ),
    "one_over_log": Formula(
        value=lambda t, out=None: np.divide(1.0, np.log(t, out=out), out=out),
        derivative=lambda t: -1.0 / (t * np.log(t) ** 2),
        bound=lambda p0: 1.0 / math.log(p0),
        case=lambda u: (DecayCase.CASE4, ""),
        names=("invlog",),
        start=3,
        minimum=3,
    ),
    "sqrt_loglog": Formula(
        value=lambda t, out=None: np.sqrt(np.log(np.log(t, out=out), out=out), out=out),
        derivative=lambda t: 1.0 / (2.0 * t * np.log(t) * np.sqrt(np.log(np.log(t)))),
        bound=lambda p0: None,
        case=lambda u: (None, "unbounded kind; outside the catalogue"),
        antiderivative=lambda t, u: _lnln(t) ** (u / 2.0 + 1.0) / (u / 2.0 + 1.0),
        tag="power-of-loglog",
        names=("sqrtloglog",),
        start=3,
        minimum=3,
    ),
    "one_minus_one_over_p": Formula(
        value=lambda t, out=None: np.subtract(1.0, np.divide(1.0, t, out=out), out=out),
        derivative=lambda t: 1.0 / (t * t),
        bound=lambda p0: 1.0,
        case=lambda u: (DecayCase.CASE2, ""),
        names=("one_minus_inv_p", "oneminusinvp"),
    ),
    "one_minus_one_over_log": Formula(
        value=lambda t, out=None: np.subtract(
            1.0, np.divide(1.0, np.log(t, out=out), out=out), out=out),
        derivative=lambda t: 1.0 / (t * np.log(t) ** 2),
        bound=lambda p0: max(abs(1.0 - 1.0 / math.log(p0)), 1.0),
        case=lambda u: (DecayCase.CASE2, ""),
        names=("one_minus_inv_log", "oneminusinvlog"),
        start=3,
        minimum=3,
    ),
}

KINDS = (*FORMULAS, "tabulated")

_SPEC_KINDS = {name: kind for kind, f in FORMULAS.items() for name in f.names}


class TabulatedLookupError(LookupError):
    """A tabulated function was evaluated at a prime it has no entry for."""


@dataclass(frozen=True)
class PrimeFunction:
    """Value f(p) = c * g(p) of an arithmetic function at primes.

    Parameters
    ----------
    kind : str
        The shape g: one of :data:`KINDS`.
    c : float
        The factor of g (`one` is the constant shape at c = 1).
    table : tuple of (prime, value), optional
        Entries of g for kind="tabulated".
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
    table: tuple[tuple[int, float], ...] | None = None
    default: float | None = None
    p0: int | None = None
    residue_filter: Progression | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "tabulated" and not self.table:
            raise ValueError("tabulated kind requires a non-empty table")
        if not all(math.isfinite(v) for v in (self.c, *self._table_values())):
            raise ValueError("function values must be finite numbers")
        if self.start_prime < self.minimum_start:
            raise ValueError(
                f"kind {self.kind} requires start prime >= {self.minimum_start}, "
                f"got {self.start_prime}"
            )
        for p, _ in self.table or ():
            if not is_prime(p):
                raise ValueError(f"tabulated key {p} is not a prime")

    def _table_values(self) -> list[float]:
        values = [v for _, v in self.table or ()]
        return values if self.default is None else [*values, self.default]

    @property
    def formula(self) -> Formula | None:
        """The kind's entry in :data:`FORMULAS` (None for tabulated)."""
        return FORMULAS.get(self.kind)

    @property
    def minimum_start(self) -> int:
        return self.formula.minimum if self.formula else 2

    @property
    def start_prime(self) -> int:
        if self.p0 is not None:
            return self.p0
        if self.kind == "tabulated":
            return min(p for p, _ in self.table)
        return self.formula.start

    @property
    def nonnegative(self) -> bool:
        if self.kind == "tabulated":
            return all(self.c * v >= 0 for v in self._table_values())
        return self.c * self.formula.sign >= 0

    def value_bound(self) -> float | None:
        """Supremum of |f(p)| over p >= start prime, None if unbounded."""
        if self.kind == "tabulated":
            return abs(self.c) * max(abs(v) for v in self._table_values())
        bound = self.formula.bound(self.start_prime)
        return None if bound is None else abs(self.c) * bound

    @property
    def bounded_by_one(self) -> bool:
        bound = self.value_bound()
        return bound is not None and bound <= 1.0 + 1e-15

    def constant_above(self, x: int) -> float | None:
        """The one value of f(p) on every prime p > x, or None if it has several.

        A property of the spec alone: constant specs at any factor that
        start by x + 1 and have no residue filter, and tabulated specs with
        a default and every key <= x.
        """
        if self.start_prime > x + 1:
            return None
        if self.residue_filter is not None and not self.residue_filter.is_full:
            return None
        if self.kind == "tabulated":
            if self.default is not None and max(p for p, _ in self.table) <= x:
                return self.c * self.default
            return None
        if self.formula.case(1)[0] is DecayCase.CASE1:
            return self.c * float(self.formula.value(x))
        return None

    def values_at(self, primes: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorized f(p) for primes of any integer type, as one new float64
        array (0 below start / off-class, so f(1) = 0); primes is never written."""
        primes = np.asarray(primes)
        if self.kind == "tabulated":
            lookup = dict(self.table)
            keys = np.array(sorted(lookup), dtype=np.int64)
            pos = np.minimum(np.searchsorted(keys, primes), keys.size - 1)
            hit = keys[pos] == primes
            missing = ~hit & (primes >= self.start_prime)
            if self.default is None and np.any(missing):
                raise TabulatedLookupError(
                    f"no table entry (and no default) for prime {int(primes[missing][0])}"
                )
            table_vals = np.array([lookup[q] for q in keys.tolist()])
            vals = np.where(hit, table_vals[pos], self.default or 0.0)
        else:
            # clip entries below the start prime, zeroed next, so they make no NaN
            vals = np.maximum(primes, float(self.start_prime))
            self.formula.value(vals, out=vals)
        if self.c != 1.0:
            vals *= self.c
        # a multiply, not a masked copy that mispredicts; + 0.0 turns -0.0 to 0.0
        vals *= primes >= self.start_prime
        if self.residue_filter is not None and not self.residue_filter.is_full:
            k, l = self.residue_filter.modulus, self.residue_filter.residue
            vals *= np.remainder(primes, k, dtype=np.int64) == l
        vals += 0.0
        return vals


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
            if a < 1 or not is_prime(p):
                raise ValueError(f"invalid override position ({p}, {a})")

    @property
    def override_map(self) -> dict[tuple[int, int], float]:
        return dict(self.overrides)

    def base_value(self, a: int, fp: float) -> float:
        """f(p^a) by the mode alone, given f(p) = fp."""
        return fp if self.mode == "strong" else a * fp

    def power_value(self, p: int, a: int, fp: float) -> float:
        """f(p^a) given f(p) = fp: the override if one is set, else the mode's rule."""
        return self.override_map.get((p, a), self.base_value(a, fp))

    def increment(self, p: int, a: int, fp: float) -> float:
        """f(p^a) - f(p^(a-1)) given f(p) = fp.  Away from overrides the rule
        fixes it exactly: f(p) at a = 1, then 0 (strong) or f(p) (complete),
        never a difference of rounded products such as 3*0.1 - 2*0.1."""
        overrides = self.override_map
        if (p, a) not in overrides and (p, a - 1) not in overrides:
            return fp if a == 1 or self.mode == "complete" else 0.0
        prev = self.power_value(p, a - 1, fp) if a > 1 else 0.0
        return self.power_value(p, a, fp) - prev


STRONG = Extension("strong")
COMPLETE = Extension("complete")


# Built-in functions: name -> (spec, default prime-power rule, whether its
# primes are restricted to the progression's class).
_BUILTINS = {
    "omega": ("one", STRONG, False),
    "w": ("one", STRONG, False),
    "big_omega": ("one", COMPLETE, False),
    "bigomega": ("one", COMPLETE, False),
    "capital_omega": ("one", COMPLETE, False),
    "omega1": ("one", STRONG, True),
    "half_omega": ("scaled:0.5:one", STRONG, False),
}


def parse_fn(text: str) -> PrimeFunction:
    """Parse the spec syntax: a spec name from :data:`FORMULAS` (const:0.7,
    invloglog), tab:<p>=<v>,...[,default=<v>], or scaled:<a>:<spec>, which
    is <spec> with its factor c multiplied by a."""
    head, colon, rest = text.partition(":")
    head = head.lower()
    if head == "scaled":
        factor, _, inner = rest.partition(":")
        fn = parse_fn(inner)
        return dataclasses.replace(fn, c=float(factor) * fn.c)
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
    kind = _SPEC_KINDS.get(head + colon)
    if kind is None:
        raise ValueError(f"cannot parse function spec {text!r}")
    return PrimeFunction(kind, c=float(rest)) if colon else PrimeFunction(kind)


def resolve_spec(
    text: str,
    progression: Progression | None = None,
    mode: str | None = None,
    p0: int | None = None,
) -> tuple[PrimeFunction, Extension]:
    """(f, prime-power rule) for a built-in name or a spec (see :func:`parse_fn`).

    The built-ins, in any case, are omega and w (distinct prime divisors),
    big_omega, bigomega and capital_omega (with multiplicity), omega1 (the
    distinct prime divisors in the progression's class) and half_omega
    (omega scaled by 0.5).  A built-in brings its own rule and a spec the
    strong one; mode, when given, replaces either.  omega1 takes its residue
    filter from the progression; p0, when given, replaces the start prime.
    """
    spec, ext, restricted = _BUILTINS.get(text.lower(), (text, STRONG, False))
    fn = parse_fn(spec)
    if restricted:
        if progression is None:
            raise ValueError(f"{text} needs a progression for its residue filter")
        fn = dataclasses.replace(fn, residue_filter=progression)
    if p0 is not None:
        fn = dataclasses.replace(fn, p0=p0)
    return fn, ext if mode is None else Extension(mode)


# ---------------------------------------------------------------------------
# Bulk evaluation over progression members


def _residue_for(start: int, step: int, modulus: int) -> int:
    # smallest t >= 0 with start + t*step == 0 (mod modulus); caller ensures
    # gcd(step, modulus) == 1
    inv = pow(step, -1, modulus)
    return (-start * inv) % modulus


Row = tuple[int, int, int, list[float]]


def increment_table(
    specs: Sequence[tuple[PrimeFunction, Extension]], progression: Progression, n: int
) -> list[Row]:
    """Rows (p, p^a, first member index divisible by p^a, increment per spec).

    One row per prime power p^a <= n with p coprime to the modulus and p
    either at most sqrt(n) or carrying an override; a spec's increment is
    :meth:`Extension.increment`.  Rows ascend in p, then in a.  A dataset
    builds its table once and hands it to :func:`lattice_steps` and the
    sweep.
    """
    k, start = progression.modulus, progression.first_member
    candidates = {int(p) for p in primes_upto_monolithic(math.isqrt(n))}
    candidates.update(p for _, ext in specs for p, _ in ext.override_map if p <= n)
    primes = np.array(sorted(p for p in candidates if k % p), dtype=np.int64)
    f_at = [fn.values_at(primes) for fn, _ in specs]
    rows = []
    for j, p in enumerate(primes.tolist()):
        a, pa = 1, p
        while pa <= n:
            deltas = [ext.increment(p, a, float(f[j])) for (_, ext), f in zip(specs, f_at)]
            rows.append((p, pa, _residue_for(start, k, pa), deltas))
            a, pa = a + 1, pa * p
    return rows


def found_dtype(n: int) -> type:
    """Type of the members up to n and of their found parts, which divide
    them and so never overflow: uint32 below 2^32, else int64."""
    return np.uint32 if n < 1 << 32 else np.int64


def lattice_dtype(n: int, k_max: int) -> type:
    """Type of a lattice column whose row increments are at most k_max in
    size: a member up to n lies on at most floor(log2 n) rows and has at
    most one prime above sqrt(n), so |k| <= floor(log2 n) * k_max + 1.  int8
    when that is at most 127, else the narrowest that holds it (None past
    int64)."""
    bound = (n.bit_length() - 1) * k_max + 1
    types = (np.int8, np.int16, np.int32, np.int64)
    return next((t for t in types if bound <= np.iinfo(t).max), None)


def piece_length() -> int:
    """Values in one piece of a per-member pass: MEMBER_BLOCK / 8, rounded
    up, read at call time (512 KiB of float64 at the default block, so a
    piece and its temporaries stay in a 2 MiB L2)."""
    return -(-MEMBER_BLOCK // 8)


def pattern_rows(rows: Sequence[Row], floats: Sequence[bool]) -> tuple[int, list[int]]:
    """(W, covered): the period of the sweep's pre-sieve pattern and the
    indices of the rows it covers, among strided `rows` in table order.

    W grows over the rows in ascending p^a: a row's p^a goes into
    lcm(W, p^a) while that stays <= :func:`piece_length` (45045 on a class
    mod 4, 55440 at k = 1, 40040 mod 3 at the default block).  Integer
    columns and the found part do not depend on the order of additions,
    but a float column (True in `floats`, one per spec) adds a member's
    increments in table order.  So a row with a nonzero float increment is
    covered only if every earlier row with one is, and the covered rows
    then come first among each member's rows.  W is the lcm of the covered
    rows' p^a (1 when none is).
    """
    limit, joined = piece_length(), 1
    for pa in sorted(row[1] for row in rows):
        if math.lcm(joined, pa) <= limit:
            joined = math.lcm(joined, pa)
    period, covered, in_order = 1, [], True
    for i, (_, pa, _, deltas) in enumerate(rows):
        ok = joined % pa == 0
        if any(d != 0 for d, fl in zip(deltas, floats) if fl):
            ok = in_order = in_order and ok
        if ok:
            period = math.lcm(period, pa)
            covered.append(i)
    return period, covered


def _strike(rows: Iterable[tuple[Row, tuple]], found: np.ndarray, vals: list[np.ndarray],
            t_lo: int) -> None:
    """Each (row, its column increments) on its stride of a block whose
    first slot is member index t_lo: p into the found part, every nonzero
    increment into its column."""
    for (p, pa, t0, _), deltas in rows:
        off = (t0 - t_lo) % pa
        if off < found.size:
            found[off::pa] *= p
            for v, d in zip(vals, deltas):
                if d != 0:
                    v[off::pa] += d


def iter_progression_values(
    specs: Sequence[tuple[PrimeFunction, Extension]],
    progression: Progression,
    n: int,
    rows: list[Row] | None = None,
    steps: Sequence[float | None] | None = None,
) -> Iterator[list[np.ndarray]]:
    """Evaluate additive functions over all progression members up to n.

    Yields, per block of MEMBER_BLOCK members, one array per spec.
    One table of prime-power increments serves every spec: `rows`, when the
    caller has built it, else a fresh :func:`increment_table`.
    The members form an arithmetic sequence with step coprime to p, so the
    multiples of p^a among them sit on one stride of the member index: each
    row adds its increments on that stride and multiplies p into the
    member's found part there (:func:`found_dtype`).  Rows of primes up to
    isqrt of the first block's length do so one by one, except those of
    the pre-sieve pattern (:func:`pattern_rows`): each block's found part
    and columns start as that pattern, built once per sweep over a
    multiple of its period W near a piece and tiled from phase t_lo % W
    (the sieve's ``_fill_pattern``).  The rest, a suffix
    of the table, are one pass per block over their hits' indices (from a
    template built once per sweep, np.multiply.at and np.add.at), so each
    member still gets its increments in table order.  A member whose found
    part falls short of it has one prime factor q above sqrt(n) left.  A
    spec that is one constant c on those primes adds c there; any other
    spec adds f(rest) on the whole block, in pieces of :func:`piece_length`
    members, rest = member // found written into the found buffer: rest is
    1 or q, and f(1) = 0 for every spec, as 1 is below every start prime.
    Every block reuses one member and one found buffer.  A spec with a step
    in `steps` (see :func:`lattice_steps`) gets integer lattice indices k
    for its values k * step (:func:`lattice_dtype`): each row adds
    round(increment / step), a prime above sqrt(n) the sign of c.  Other
    specs get float64 sums.
    """
    total = progression.count(n)
    if total == 0:
        return
    start, k = progression.first_member, progression.modulus
    if rows is None:
        rows = increment_table(specs, progression, n)
    constants = [fn.constant_above(math.isqrt(n)) for fn, _ in specs]
    columns = [[row[3][j] for row in rows] for j in range(len(specs))]
    dtypes = [np.float64] * len(specs)
    for j, step in enumerate(steps or ()):
        if step is not None:
            columns[j] = [round(d / step) for d in columns[j]]
            dtypes[j] = lattice_dtype(n, max(map(abs, columns[j]), default=0))
            constants[j] = dtypes[j](math.copysign(1, constants[j]))
    counted = any(c is not None and c != 0 for c in constants)
    fdt = found_dtype(n)
    size, piece = min(MEMBER_BLOCK, total), piece_length()
    cut = bisect.bisect_right(rows, math.isqrt(size), key=lambda row: row[0])
    dense = list(zip(rows[:cut], zip(*columns)))
    period, covered = pattern_rows(rows[:cut], [t is np.float64 for t in dtypes])
    period *= piece // period  # a multiple of W near a piece: few copies per block
    found_pattern, patterns = np.ones(period, dtype=fdt), [np.zeros(period, t) for t in dtypes]
    _strike(map(dense.__getitem__, covered), found_pattern, patterns, 0)
    dense = [row for i, row in enumerate(dense) if i not in covered]
    ps, pas, t0s = np.array([row[:3] for row in rows[cut:]], dtype=np.int64).reshape(-1, 3).T
    hits, ps = -(-size // pas), ps.astype(fdt)
    first = np.concatenate(([0], np.cumsum(hits))).tolist()  # each row's first hit, then the total
    step = np.concatenate([np.zeros(0, np.int32)] + [
        np.arange(0, size, min(pa, size), dtype=np.int32) for pa in pas.tolist()])
    starts = np.flatnonzero(np.diff(np.array(first[:-1]) // -(-size // 8), prepend=-1)).tolist()
    pieces = list(zip(starts, starts[1:] + [ps.size]))  # of about size / 8 hits
    sparse = [np.array(col[cut:], dtype=t) for col, t in zip(columns, dtypes)]
    members, found = np.arange(start, start + k * size, k, dtype=fdt), np.empty(size + 1, dtype=fdt)

    for t_lo in range(0, total, MEMBER_BLOCK):
        size = min(MEMBER_BLOCK, total - t_lo)
        m, f = members[:size], found[: size + 1]
        m += k * MEMBER_BLOCK if t_lo else 0  # advance the last block's members
        vals = [np.empty(size + 1, dtype=t) for t in dtypes]  # [size]: hits past the block
        for buf, pattern in zip([f, *vals], [found_pattern, *patterns]):
            _fill_pattern(buf, pattern, t_lo % period)
        _strike(dense, f, vals, t_lo)
        offs = (t0s - t_lo) % pas
        for a, b in pieces:
            idx = np.repeat(offs[a:b], hits[a:b])
            np.minimum(np.add(idx, step[first[a] : first[b]], out=idx), size, out=idx)
            np.multiply.at(f, idx, np.repeat(ps[a:b], hits[a:b]))
            for v, d in zip(vals, sparse):
                np.add.at(v, idx, np.repeat(d[a:b], hits[a:b]))

        f, vals, idx = f[:size], [v[:size] for v in vals], None  # idx not held to the yield
        big = f < m if counted else None
        rest = np.floor_divide(m, f, out=f) if None in constants else None
        for v, (fn, _), c in zip(vals, specs, constants):
            if c is None:
                for at in range(0, size, piece):
                    v[at : at + piece] += fn.values_at(rest[at : at + piece])
            elif c != 0:
                v += c * big

        yield vals


def lattice_steps(
    specs: Sequence[tuple[PrimeFunction, Extension]], rows: list[Row], n: int
) -> list[float | None]:
    """Per spec, |c| when every value of f on the members up to n is an
    integer multiple of c = f's constant above sqrt(n), else None.

    Decided from the spec and its column of `rows` (the specs'
    :func:`increment_table`), never from the values: c must be nonzero and
    every increment an exact integer multiple of c, with every member's
    lattice index within int64 (:func:`lattice_dtype`).  A member's value is
    then its rows' increments plus c for a prime above sqrt(n) (omega,
    bigomega, half_omega, const:c under either rule and tabulated specs
    whose entries are multiples of their default).
    """
    steps: list[float | None] = []
    for j, (fn, _) in enumerate(specs):
        c = fn.constant_above(math.isqrt(n))
        ks = [row[3][j] / c for row in rows] if c else None
        on = (ks is not None and all(map(math.isfinite, ks))
              and all(row[3][j] == round(k) * c for row, k in zip(rows, ks))
              and lattice_dtype(n, max((abs(round(k)) for k in ks), default=0)) is not None)
        steps.append(abs(c) if on else None)
    return steps


class LatticeCounts:
    """Integer histogram of values k * step, filled block by block.

    A block of lattice indices k (any integer type) that spans at most
    SPAN_COUNTED lattice points is counted with one np.count_nonzero(k == v)
    per point; a wider one is binned by k relative to its own minimum, in
    pieces of :func:`piece_length` through one small intp buffer.  Blocks
    merge by adding counts, so memory follows the number of lattice points
    spanned, not the number of values.

    The crossover, measured on blocks of 2^19 uniform indices (2 vCPU Xeon,
    best of 15): binning takes about 0.96 ms at any span; counting takes
    0.38 ms at 9 points, 0.66 ms at 16 and 0.98 ms at 24 on int8, and
    0.51, 0.90 and 1.33 ms on int16.  So SPAN_COUNTED is 16 for both; omega
    spans at most 9 points at n = 3e7 and bigomega at most 14.
    """

    SPAN_COUNTED = 16

    def __init__(self, step: float):
        self.step = step
        self.lo = 0  # lattice index of counts[0]
        self.counts = np.zeros(0, dtype=np.int64)

    def add_batch(self, k: np.ndarray) -> None:
        lo, hi, piece = int(k.min()), int(k.max()), piece_length()
        if hi - lo < self.SPAN_COUNTED:
            hist = np.array([np.count_nonzero(k == v) for v in range(lo, hi + 1)], np.int64)
        else:
            buf, hist = np.empty(min(piece, k.size), np.intp), np.zeros(hi - lo + 1, np.int64)
            for part in np.split(k, range(piece, k.size, piece)):
                d = np.subtract(part, lo, out=buf[: part.size], dtype=np.intp)  # int8 would wrap
                hist += np.bincount(d, minlength=hist.size)
        if not self.counts.size:
            self.lo, self.counts = lo, hist
            return
        new_lo = min(lo, self.lo)
        new_hi = max(lo + hist.size, self.lo + self.counts.size)
        if new_hi - new_lo > self.counts.size:
            grown = np.zeros(new_hi - new_lo, dtype=np.int64)
            grown[self.lo - new_lo : self.lo - new_lo + self.counts.size] = self.counts
            self.lo, self.counts = new_lo, grown
        self.counts[lo - self.lo : lo - self.lo + hist.size] += hist

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, counts): the occupied values k * step, ascending, and their counts."""
        k = np.flatnonzero(self.counts)
        return (k + self.lo) * self.step, self.counts[k]
