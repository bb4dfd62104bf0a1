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
rows by 2 sqrt(x) values.  :func:`tail_sums` reads the tables at two floor
values, x and y, and keeps those few numbers for the next call, not the
tables.  Lagarias-Miller-Odlyzko (1985) and Deleglise-Rivat (1996) are the
faster relatives of the method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sieve import euler_phi, primes_upto_monolithic

# The Bernoulli terms B_2j / (2j) of the digamma series, j = 1..6: at z >= 12
# the next term is below 1e-16 of psi(z).
_DIGAMMA_TERMS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
_DIGAMMA_SHIFT = 12
# B_2j, j = 1..7, for the Hurwitz series: at z >= 12 and s <= 3 the next
# term is below 1e-17.
_BERNOULLI_2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)

# About the most (prime, column) pairs struck together past cbrt(x).
_PAIRS = 1 << 16
# Columns per piece of the start values and of each small prime's strike,
# so that their temporaries stay a few MiB whatever x is.
_COLUMN_PIECE = 1 << 16


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


def digamma(z: np.ndarray | float) -> np.ndarray:
    """psi(z) for real z > 0: the recurrence psi(z) = psi(z + 1) - 1/z up to
    z >= 12, then ln z - 1/(2z) - sum of B_2j / (2j z^2j)."""
    z, shift = _shift_up(z, np.reciprocal)
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    for term in reversed(_DIGAMMA_TERMS):
        series = (series + term) * w
    return np.log(z) - 0.5 / z - series - shift


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
    the primes p <= v with p = a mod k."""
    if x < 2 or k < 1 or smax < 1:
        raise ValueError(
            f"need x >= 2, k >= 1 and smax >= 1, got x = {x}, k = {k}, smax = {smax}")
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
    counts = np.empty((len(units), size), dtype=np.int64)
    sums = np.empty((smax, len(units), size))
    for row, a in enumerate(units):
        lead = a or k
        heads = [math.fsum((lead + i * k) ** -s for i in range(_DIGAMMA_SHIFT))
                 for s in range(1, smax + 1)]
        z = lead / k + _DIGAMMA_SHIFT
        constants = [heads[0] - float(digamma(z)) / k]
        constants += [heads[s - 1] + float(hurwitz(s, z)) / k**s for s in range(2, smax + 1)]
        for lo in range(0, size, _COLUMN_PIECE):
            j = (values[lo : lo + _COLUMN_PIECE] - lead) // k
            np.maximum(j + 1, 0, out=counts[row, lo : lo + j.size])
            z = lead / k + (j + 1)
            inside = j >= 0
            sums[0, row, lo : lo + j.size] = np.where(inside, digamma(z) / k + constants[0], 0.0)
            for s in range(2, smax + 1):
                sums[s - 1, row, lo : lo + j.size] = np.where(
                    inside, constants[s - 1] - hurwitz(s, z) / k**s, 0.0)
        if lead == 1:  # n = 1 is not counted
            counts[row] -= 1
            sums[:, row] -= 1.0

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
            for s, table in enumerate((counts, *sums)):
                hit = table[rows, src]
                hit -= table[rows, p - 2]  # the column of p - 1
                if s:
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
        weight = base = p[:, None].astype(np.float64)
        for table in sums:
            np.subtract.at(table, (every, dst), (table[rows, src] - table[rows, below]) / weight)
            weight = weight * base
        start = stop
    return ClassTables(x, k, values, units, counts, sums)


# The last tail_sums result: ((x, k, y, smax), its sums).
_last_tail: tuple[tuple[int, int, int, int], dict[int, tuple]] | None = None


def tail_sums(x: int, k: int, y: int, smax: int = 1) -> dict[int, tuple]:
    """{a: (pi, P_1, ..., P_smax)} over the primes y < p <= x with p = a mod k,
    for every unit a mod k; y is a floor value of x (y <= isqrt(x), or x // i).

    The result of the last call is kept, and a call with the same x, k and y
    and no larger smax reads it: callers that take several classes, or both
    model modes, at one (x, k) build the tables once.  Only these few
    numbers are kept: the tables would hold 1 + smax arrays of phi(k) rows
    by 2 sqrt(x) values for the rest of the process.
    """
    global _last_tail
    if _last_tail is not None:
        (x0, k0, y0, smax0), tails = _last_tail
        if (x0, k0, y0) == (x, k, y) and smax <= smax0:
            return {a: sums[: 1 + smax] for a, sums in tails.items()}
    if not 1 <= y <= x:
        raise ValueError(f"need 1 <= y <= x, got y = {y}, x = {x}")
    t = class_tables(x, k, smax)
    if t.values[t.column(y)] != y:
        raise ValueError(f"{y} is not a floor value of {x}")
    tails = {a: tuple(h - l for h, l in zip(t.at(x, a), t.at(y, a))) for a in t.units}
    _last_tail = (x, k, y, smax), tails
    return tails
