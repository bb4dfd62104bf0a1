"""Prime counts and prime power sums by residue class, without a sieve.

For a limit x, a modulus k and an order smax, :func:`class_tables` gives
pi(v; k, a) and the sums P_s(v; k, a) of p^(-s), s = 1..smax, over the
primes p <= v with p = a mod k, for every floor value v in
V = {1, ..., isqrt(x)} and {x // i}, and every unit a mod k.  This is the
Legendre-Lucy recursion run on one row per class.  Each row starts as the
integers 2 <= n <= v of its class: a count, or the sum of n^(-s) over the
class, from the digamma function at s = 1 and the Hurwitz zeta function
past it.  Each prime p <= sqrt(x) that does not divide k then takes the
p-rough multiples of p out of every column v >= p^2:

    S(v, a) -= g(p) * (S(v // p, a / p) - S(p - 1, a / p)),

with g(p) = 1 for the counts and p^(-s) for the sums.  When the primes up
to sqrt(v) are done, S(v, a) holds the primes alone.  The work is about
(1 + smax) phi(k) x^(3/4) / ln x, and the memory 1 + smax arrays of phi(k)
rows by 2 sqrt(x) values; the sums of 1/p are integers until the end.
:func:`tail_sums` reads the tables at two floor values, x and y, and keeps
those few numbers, not the tables.  Lagarias-Miller-Odlyzko (1985) and
Deleglise-Rivat (1996) are the faster relatives of the method.
:func:`counted_limit` decides where every prime pass (`sum`, the model,
the predictions) stops sieving, and :func:`counted_tail` counts the rest.

The same tables give the joint law of omega and Omega on a class
(:func:`omega_law`): every m = s p, p a prime above the largest prime of
s, is counted at its prefix s as pi(n // s; k, r / s) - pi(P(s); k, r / s),
so a walk over the prefixes s replaces the member sweep.  The law is the
dataset of every f that is one constant c != 0 on every prime with no
overrides (c omega or c Omega): `moments`, `ektest` and `compare` take it
from there when :func:`pays` holds at (n, k) (moments.collect_datasets),
and sweep the members otherwise.
One store keeps the tails by (k, y) and the laws by (k, r) of the last x
(not the tables; a law is at most (n.bit_length() + 1)^2 int64), and a call
at another x clears both: one process that asks again at the same x, as
`moments`, `ektest` and `compare` on one class do, counts them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arith_fn import PrimeFunction
from .config import COUNTING_CEILING
from .sieve import Progression, euler_phi, primes_upto_monolithic

# The Bernoulli terms B_2j / (2j) of the digamma series, j = 1..6: at z >= 12
# the next term is below 1e-16 of psi(z).
_DIGAMMA_TERMS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
_DIGAMMA_SHIFT = 12
# B_2j, j = 1..7, for the Hurwitz series: at z >= 12 and s <= 3 the next
# term is below 1e-17.
_BERNOULLI_2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)

# About the most (prime, column) pairs struck together past cbrt(x).  A
# strike's temporaries (the pairs, their columns and rows, the gathers and
# the quotients) hold up to _PAIRS * phi(k) values of 8 bytes, 128 KiB at
# k = 4.  At 2^16 pairs (1 MiB each) they grew the C heap, which kept the
# growth for the rest of the process; at 2^13 the builds take the same time
# (3e7 to 10^11, best of 3), and the counts mod 4 alone peak at 41.5 MiB at
# 10^10 and 55.6 MiB at 10^11, not 46.1 and 61.1 MiB.
_PAIRS = 1 << 13
# Columns per piece of the start values and of each small prime's strike,
# so that their temporaries stay a few MiB whatever x is.
_COLUMN_PIECE = 1 << 16
# About the most children of one piece of omega_law's prefix walk.
_NODES = 1 << 14
# A prime pass counts the primes past the floor value of n at or just above
# this, where f allows (see counted_limit).
COUNTED_FROM = 10**6


def _shift_up(
    z: np.ndarray | float, term: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(z', the sum of term(z + i) for 0 <= i < z' - z): every z raised by
    ones to z' >= 12, where the series below hold."""
    z = np.array(z, dtype=np.float64)
    shift = np.zeros_like(z)
    for _ in range(_DIGAMMA_SHIFT):
        low = z < _DIGAMMA_SHIFT
        if not low.any():
            break
        shift[low] += term(z[low])
        z[low] += 1.0
    return z, shift


def _digamma_parts(z: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(z', psi(z) - ln z'): z raised by ones to z' >= 12 by the recurrence
    psi(z) = psi(z + 1) - 1/z, then -1/(2z') - sum of B_2j / (2j z'^2j)."""
    z, shift = _shift_up(z, np.reciprocal)
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    for term in reversed(_DIGAMMA_TERMS):
        series = (series + term) * w
    return z, -0.5 / z - series - shift


def _digamma_fixed(t: float, m: np.ndarray, one: int) -> np.ndarray:
    """psi(t + m) in units of 1 / one (int64, one a power of two), for
    0 < t <= 1 and integers 1 <= m < 2^53, within a few 1e-17 past m = 12.

    A float psi would round at the size of ln(t + m).  Here, after the
    shift to t + m' >= 12, ln(t + m') = e ln 2 + ln f + log1p(t / m') with
    m' = f 2^e, f in [sqrt(1/2), sqrt(2)): e ln 2 from the bits of ln 2, and
    the rest, below 0.45 past m = 12, in floats.
    """
    z, rest = _digamma_parts(t + m)
    m = m + np.rint(z - t - m).astype(np.int64)  # t + m' = z
    f, e = np.frexp(m.astype(np.float64))  # m' = f 2^e, f in [1/2, 1)
    low = f < math.sqrt(0.5)
    f[low] *= 2.0
    e[low] -= 1
    ln2 = (0xB17217F7D1CF79AC * one + (1 << 63)) >> 64  # from ln 2 in units of 2^-64
    rest += np.log(f) + np.log1p(t / m)
    return e.astype(np.int64) * ln2 + np.rint(rest * one).astype(np.int64)


def hurwitz(s: int, z: np.ndarray | float) -> np.ndarray:
    """zeta(s, z), the sum of (z + i)^(-s) over i >= 0, for an integer s >= 2
    and real z > 0: the recurrence zeta(s, z) = z^(-s) + zeta(s, z + 1) up
    to z >= 12, then the Euler-Maclaurin series z^(1-s) / (s - 1) + z^(-s) / 2
    + sum of B_2j / (2j)! s (s + 1) ... (s + 2j - 2) z^(1 - s - 2j)."""
    z, shift = _shift_up(z, lambda v: v ** -s)
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    for j in range(len(_BERNOULLI_2J), 0, -1):
        rising = math.prod(range(s, s + 2 * j - 1))  # s (s + 1) ... (s + 2j - 2)
        series = (series + _BERNOULLI_2J[j - 1] / math.factorial(2 * j) * rising) * w
    return z ** (1 - s) * (1 / (s - 1) + 0.5 / z + series) + shift


def pays(x: int, k: int) -> bool:
    """Whether the tables beat the streamed class sieve at (x, k), within memory.

    The tables cost about phi(k) x^(3/4) / ln x and the class sieve about
    x / lcm(2, k), so counting pays while phi(k) lcm(2, k) stays below a
    multiple of x^(1/4) ln x; measured, the crossover grows more like sqrt(x).
    On a 2 vCPU Xeon, the tables (every class, best of 3) against the
    streamed sieve (one class, best of 2), with m = phi(k) lcm(2, k):

        4e8:  m = 8 (k = 4) 0.05 s vs 0.34 s; 48 (12) 0.11 vs 0.14;
              84 (7) 0.14 vs 0.11; 108 (9) 0.19 vs 0.11; 240 (30) 0.19 vs 0.07
        4e9:  m = 48 (12) 0.54 s vs 1.9 s; 192 (24) 1.15 vs 1.05;
              240 (30) 1.13 vs 0.75; 960 (60) 2.2 vs 0.47

    The crossover is near m = 60 at 4e8 and m = 170 at 4e9; the rule
    m <= sqrt(x) / 400 (50 at 4e8, 158 at 4e9) sits a little below both.
    The tables hold phi(k) rows of 2 sqrt(x) values: the counts and one
    row of sums per order s.  So phi(k) sqrt(x) <= 2^21 keeps them within
    64 MiB at smax = 1 (prime sums) and 128 MiB at smax = 3 (the model),
    at 10^12 for k = 1, 2, 3, 4, 6.
    """
    root = math.isqrt(x)
    if 400 * math.lcm(2, k) > root:  # before phi(k), which factors k
        return False
    phi = euler_phi(k)
    return 400 * phi * math.lcm(2, k) <= root and phi * root <= 1 << 21


@dataclass(frozen=True)
class ClassTables:
    """pi and the sums of p^(-s) by class at the floor values of x.

    values is V ascending; units the unit residues mod k, one row each;
    counts (int64) has one row per unit and one column per value of V, and
    sums (float64) one such table per order s = 1..smax.
    """

    x: int
    modulus: int
    values: np.ndarray
    units: tuple[int, ...]
    counts: np.ndarray
    sums: np.ndarray

    def column(self, v: int) -> int:
        """The column of a floor value v (v <= isqrt(x), or v = x // i)."""
        r = math.isqrt(self.x)
        return v - 1 if v <= r else self.values.size - self.x // v

    def at(self, v: int, residue: int) -> tuple:
        """(pi(v; k, a), P_1, ..., P_smax): the count of those primes and their
        sums of p^(-s), for a floor value v."""
        row, col = self.units.index(residue % self.modulus), self.column(v)
        return int(self.counts[row, col]), *(float(t[row, col]) for t in self.sums)


def class_tables(x: int, k: int, smax: int = 1) -> ClassTables:
    """The tables of pi(v; k, a) and of the sums of p^(-s), s = 1..smax, over
    the primes p <= v with p = a mod k; smax = 0 builds the counts alone."""
    if x < 2 or k < 1 or smax < 0:
        raise ValueError(
            f"need x >= 2, k >= 1 and smax >= 0, got x = {x}, k = {k}, smax = {smax}")
    r = math.isqrt(x)
    q = r if x // r > r else r - 1  # the large values x // i > r have i <= q
    # i of each large column x // i (0 for the small ones), ascending v
    divisor = np.concatenate([np.zeros(r, np.int64), np.arange(q, 0, -1, dtype=np.int64)])
    values = np.concatenate([np.arange(1, r + 1, dtype=np.int64), x // divisor[r:]])
    size = values.size
    units = tuple(a for a in range(k) if math.gcd(a, k) == 1)

    # start values: the n in [2, v] with n = a mod k; a' in [1, k] is the least
    # such n, and a', a' + k, ..., a' + jk lie in [1, v].  Over the class, the
    # sum of 1/n is (psi(a'/k + j + 1) - psi(a'/k)) / k and the sum of n^(-s)
    # is (zeta(s, a'/k) - zeta(s, a'/k + j + 1)) / k^s, the constants at a'/k
    # taken as their first 12 terms plus a tail at z >= 12.
    #
    # The sums of 1/p are integers in units of 1 / one until the end: a row
    # starts near ln v, where a float strike rounds, and a tail, a difference
    # of two columns, is small beside it.  Integers subtract exactly and round
    # once per quotient; no value reaches 2^62, a row staying below ln x + 1.
    one = 1 << (62 - math.ceil(math.log2(math.log(x) + 2)))
    counts = np.empty((len(units), size), dtype=np.int64)
    sums = np.empty((smax, len(units), size))
    fixed = sums[0].view(np.int64) if smax else None  # the same memory as sums[0]
    for row, a in enumerate(units):
        lead = a or k
        z = lead / k + _DIGAMMA_SHIFT
        constants = [math.fsum((lead + i * k) ** -s for i in range(_DIGAMMA_SHIFT))
                     + float(hurwitz(s, z)) / k**s for s in range(2, smax + 1)]
        # the sum of 1/n over a', ..., a' + jk is 1/a' + (psi(a'/k + j + 1) -
        # psi(a'/k + 1)) / k, and 1/a' is the n = 1 left out when a' = 1
        psi_1 = _digamma_fixed(lead / k, np.ones(1, np.int64), one)[0]
        lead_term = (2 * one + lead) // (2 * lead) if lead > 1 else 0
        for lo in range(0, size, _COLUMN_PIECE):
            j = (values[lo : lo + _COLUMN_PIECE] - lead) // k
            np.maximum(j + 1, 0, out=counts[row, lo : lo + j.size])
            if not smax:
                continue
            inside = j >= 0
            psi = _digamma_fixed(lead / k, np.maximum(j + 1, 1), one)
            fixed[row, lo : lo + j.size] = np.where(
                inside, lead_term + (psi - psi_1 + k // 2) // k, 0)
            z = lead / k + (j + 1)
            for s in range(2, smax + 1):
                sums[s - 1, row, lo : lo + j.size] = np.where(
                    inside, constants[s - 2] - hurwitz(s, z) / k**s, 0.0)
        if lead == 1:  # n = 1 is not counted
            counts[row] -= 1
            sums[1:, row] -= 1.0

    # perm[b][row of a] is the row of a / b mod k, for every unit b
    index = {a: i for i, a in enumerate(units)}
    perm = np.zeros((k, len(units)), dtype=np.int64)
    for b in units:
        inv = pow(b, -1, k) if k > 1 else 0
        perm[b] = [index[a * inv % k] for a in units]
    primes = primes_upto_monolithic(r)
    primes = primes[k % primes != 0]
    # A prime p <= cbrt(x) strikes columns it also reads (v // p >= p^2 for
    # v >= p^3), so these go one by one.  Each takes its columns in pieces from
    # the top down: a column reads only columns below it, so every piece reads
    # the table before anything it reads is written.
    cube = primes * primes * primes <= x
    for p in primes[cube].tolist():
        lo = int(np.searchsorted(values, p * p))
        rows = perm[p % k][:, None]
        for hi in range(size, lo, -_COLUMN_PIECE):
            cols = slice(max(hi - _COLUMN_PIECE, lo), hi)
            w = values[cols] // p
            src = np.where(w <= r, w - 1, size - divisor[cols] * p)
            for s, table in enumerate((counts, fixed, *sums[1:])[: 1 + smax]):
                hit = table[rows, src]
                hit -= table[rows, p - 2]  # the column of p - 1
                if s == 1:  # the nearest integer to hit / p
                    hit += p // 2
                    hit //= p
                elif s:
                    hit /= p**s
                table[:, cols] -= hit
    # Past cbrt(x) a prime writes only columns x // i >= p^2 > x^(2/3) and reads
    # only columns below x^(2/3), so the rest strike together, (p, i) pairs in
    # ascending p, and every column takes its terms in the one-by-one order.
    rest = primes[~cube]
    reach = x // (rest * rest)  # the columns x // i >= p^2 have i = 1 .. reach
    first = np.cumsum(reach) - reach  # each prime's first pair
    every = np.arange(len(units))[None, :]
    start = 0
    while start < rest.size:
        stop = max(int(np.searchsorted(first, first[start] + _PAIRS)), start + 1)
        p = np.repeat(rest[start:stop], reach[start:stop])
        i = np.arange(p.size) - np.repeat(first[start:stop] - first[start], reach[start:stop]) + 1
        w = x // (i * p)
        src = np.where(w <= r, w - 1, size - i * p)[:, None]
        dst, rows, below = (size - i)[:, None], perm[p % k], (p - 2)[:, None]
        np.subtract.at(counts, (every, dst), counts[rows, src] - counts[rows, below])
        base = p[:, None].astype(np.float64)
        if smax:  # a hit (< 2^62) is within 2^9 units as a float: / p within 1/2 + 2^9 / p
            np.subtract.at(fixed, (every, dst),
                           np.rint((fixed[rows, src] - fixed[rows, below]) / base).astype(np.int64))
        for s, table in enumerate(sums[1:], start=2):
            np.subtract.at(table, (every, dst), (table[rows, src] - table[rows, below]) / base**s)
        start = stop
    if smax:  # the sums of 1/p to floats in place, a piece of temporaries at a time
        for lo in range(0, size, _COLUMN_PIECE):
            sums[0, :, lo : lo + _COLUMN_PIECE] = fixed[:, lo : lo + _COLUMN_PIECE] / one
    return ClassTables(x, k, values, units, counts, sums)


# The results at the last x: tail_sums's by (x, "tails", k, y) as (smax,
# the sums), omega_law's read-only laws by (x, "law", k, r).
_store: dict[tuple[int, str, int, int], object] = {}


def _keep(x: int, key: tuple[str, int, int], value: object) -> object:
    if _store and next(iter(_store))[0] != x:  # one x at a time
        _store.clear()
    _store[(x, *key)] = value
    return value


def tail_sums(x: int, k: int, y: int, smax: int = 1) -> dict[int, tuple]:
    """{a: (pi, P_1, ..., P_smax)} over the primes y < p <= x with p = a mod k,
    for every unit a mod k; y is a floor value of x (y <= isqrt(x), or x // i).

    The results at the x of the last call are kept by (k, y), not the
    tables, and a call with no larger smax reads them: several classes,
    moduli or model modes at one x build each modulus's tables once.
    """
    kept = _store.get((x, "tails", k, y))
    if kept is not None and smax <= kept[0]:
        return {a: sums[: 1 + smax] for a, sums in kept[1].items()}
    if not 1 <= y <= x:
        raise ValueError(f"need 1 <= y <= x, got y = {y}, x = {x}")
    t = class_tables(x, k, smax)
    if t.values[t.column(y)] != y:
        raise ValueError(f"{y} is not a floor value of {x}")
    tails = {a: tuple(h - l for h, l in zip(t.at(x, a), t.at(y, a))) for a in t.units}
    return _keep(x, ("tails", k, y), (smax, tails))[1]


def counted_limit(fn: PrimeFunction, progression: Progression, n: int) -> int:
    """The sieve limit of a pass over the primes p <= n, the one rule of every
    prime pass (`sum`, the model's moments, Lindeberg ratio and predictions):
    y = n // (n // COUNTED_FROM), the floor value of n at or just above 10^6,
    when 2 * 10^6 <= n <= COUNTING_CEILING, f is constant past y
    (fn.constant_above) and :func:`pays` holds at (n, k); else n."""
    if 2 * COUNTED_FROM <= n <= COUNTING_CEILING:  # below, y = n
        y = n // (n // COUNTED_FROM)
        if fn.constant_above(y) is not None and pays(n, progression.modulus):
            return y
    return n


def counted_tail(
    fn: PrimeFunction, progression: Progression, n: int, mode: str = "restricted",
    smax: int = 1,
) -> tuple[int, float, int, list[float]]:
    """(limit, c, pi, [P_1, ..., P_smax]): the primes up to limit
    (:func:`counted_limit`) are sieved, and those past it, where f = c,
    enter through their count and their sums P_s of p^(-s), over the class
    (mode "restricted") or every unit class (mode "density").  Off the
    route limit is n and the rest is 0."""
    limit = counted_limit(fn, progression, n)
    if limit == n:
        return n, 0.0, 0, [0.0] * smax
    tails = tail_sums(n, progression.modulus, limit, smax)
    rows = [tails[progression.residue]] if mode == "restricted" else list(tails.values())
    sums = [math.fsum(row[s] for row in rows) for s in range(1, smax + 1)]
    return limit, fn.constant_above(limit), sum(row[0] for row in rows), sums


def omega_law(n: int, k: int, r: int) -> np.ndarray:
    """law[i, j] = #{m <= n : m = r mod k, omega(m) = i, Omega(m) = j}, the
    joint law of the number of distinct prime factors and of all of them
    with multiplicity on a class (r coprime to k, or k = 1), with no sweep.

    Each m > 1 is s p^a, p its largest prime and a its exponent.  The
    prefixes s are enumerated by a walk over the primes p <= sqrt(n) that do
    not divide k: the children of s are s p^b, b >= 1, for every prime
    p > P(s) with s p^2 <= n (P(1) = 1).  Every m = s p with p > P(s)
    prime is counted at its prefix: s adds pi(n // s; k, r / s) -
    pi(P(s); k, r / s) at (omega(s) + 1, Omega(s) + 1), read off one
    :func:`class_tables` of the counts alone (n // s is a floor value of n
    and P(s) <= sqrt(n) a small column).  A node s p^b with b >= 2 is itself an m whose largest
    prime is squared, and counts when it is = r; m = 1 counts when r = 1.
    The walk takes the nodes depth first in pieces of about _NODES, so its
    arrays stay a few MiB whatever n is.

    The law is stored read-only, so a later call at (n, k, r) in the
    process returns it with no tables and no walk, until a call at another n.

    At k = 4 the walk visits 72,526 nodes past the root at n = 3e7, 172,111
    at 1e8, 911,882 at 1e9 and 4,918,230 at 1e10.  On a 2 vCPU Xeon, one
    process on 1 mod 4 took 0.15-0.22 s at 1e9 (VmHWM 47 MiB) and
    0.72-1.02 s at 1e10 (56 MiB; 29 MiB of it is the interpreter and
    numpy), where the lattice sweep of omega took 14 s at 1e9.  The law
    against that sweep and its fold on one class, best of 3 in each of two
    processes:

        n, k       counting   sweep
        1e5, 4     0.0010 s   0.0011 s
        1e6, 4     0.0020     0.0045
        1e7, 4     0.0067     0.0253
        3e7, 4     0.0134     0.0694
        3e7, 12    0.0105     0.0278
        3e7, 30    0.0145     0.0165
        3e7, 60    0.0266     0.0114
        1e7, 1     0.0109     0.0882
        1e8, 4     0.0292     0.2291

    Of these, :func:`pays` admits (3e7, 4), (1e7, 1) and (1e8, 4).
    """
    if n < 2 or k < 1 or (k > 1 and math.gcd(r, k) != 1):
        raise ValueError(f"need n >= 2 and r coprime to k >= 1, got n = {n}, k = {k}, r = {r}")
    r %= k
    if (n, "law", k, r) in _store:
        return _store[n, "law", k, r]
    width = n.bit_length() + 1  # omega(m) <= Omega(m) <= log2(n)
    law = np.zeros(width * width, dtype=np.int64)  # flat: law[i * width + j]
    if 1 % k == r:
        law[0] += 1
    t = class_tables(n, k, 0)
    root, size, counts = math.isqrt(n), t.values.size, t.counts
    # a node's index names P(s): primes[0] = 1 at the root, whose column 0 holds pi(1) = 0
    primes = primes_upto_monolithic(root)
    primes = np.concatenate(([1], primes[k % primes != 0]))
    squares = primes * primes
    # the row of r / s mod k for each residue s mod k
    row = {a: i for i, a in enumerate(t.units)}
    target = np.array([row[r * pow(b, -1, k) % k] if math.gcd(b, k) == 1 else 0
                       for b in range(k)] if k > 1 else [0], dtype=np.int64)

    def walk(s: np.ndarray, top: np.ndarray, w: np.ndarray, big_w: np.ndarray) -> None:
        # s, the index of P(s) in primes, omega(s) and Omega(s), one entry a node
        v = n // s
        rows = target[s % k]
        col = np.where(v <= root, v - 1, size - n // v)
        add = counts[rows, col] - counts[rows, primes[top] - 1]
        np.add.at(law, (w + 1) * width + big_w + 1, np.maximum(add, 0))
        kids = np.maximum(np.searchsorted(squares, v, side="right") - top - 1, 0)
        first = np.cumsum(kids) - kids
        total, start = int(first[-1] + kids[-1]), 0
        while start < s.size and first[start] < total:
            stop = max(int(np.searchsorted(first, first[start] + _NODES)), start + 1)
            parent = np.repeat(np.arange(start, stop), kids[start:stop])
            idx = np.arange(parent.size) - (first[parent] - first[start]) + top[parent] + 1
            p, cs, cw = primes[idx], s[parent] * primes[idx], w[parent] + 1
            nodes = [(cs, idx, cw, big_w[parent] + 1)]
            b = 1
            while True:  # s p^b for b >= 2: each is a node, and an m that counts when = r
                more = cs <= n // p
                if not more.any():
                    break
                b, p, idx, cw, parent = b + 1, p[more], idx[more], cw[more], parent[more]
                cs = cs[more] * p
                cb = big_w[parent] + b
                np.add.at(law, (cw * width + cb)[cs % k == r], 1)
                nodes.append((cs, idx, cw, cb))
            walk(*(np.concatenate(a) for a in zip(*nodes)))
            start = stop

    one = np.ones(1, dtype=np.int64)
    walk(one, one - 1, one - 1, one - 1)
    law.flags.writeable = False
    return _keep(n, ("law", k, r), law.reshape(width, width))
