"""Prime counts and prime reciprocal sums by residue class, without a sieve.

For a limit x and a modulus k, :func:`class_tables` gives pi(v; k, a) and
the sum of 1/p over the primes p <= v with p = a mod k, for every floor
value v in V = {1, ..., isqrt(x)} and {x // i}, and every unit a mod k.
This is the Legendre-Lucy recursion run on one row per class.  Each row
starts as the integers 2 <= n <= v of its class (a count, or the harmonic
sum of the class from the digamma function).  Each prime p <= sqrt(x)
that does not divide k then takes the p-rough multiples of p out of every
column v >= p^2:

    S(v, a) -= g(p) * (S(v // p, a / p) - S(p - 1, a / p)),

with g(p) = 1 for the counts and 1/p for the sums.  When the primes up
to sqrt(v) are done, S(v, a) holds the primes alone.  The work is about
phi(k) x^(3/4) / ln x, and the memory a few arrays of phi(k) rows by
2 sqrt(x) values.  Lagarias-Miller-Odlyzko (1985) and Deleglise-Rivat
(1996) are the faster relatives of the method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import euler_phi, primes_upto_monolithic

# The Bernoulli terms B_2j / (2j) of the digamma series, j = 1..6: at z >= 12
# the next term is below 1e-16 of psi(z).
_DIGAMMA_TERMS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
_DIGAMMA_SHIFT = 12

# About the most (prime, column) pairs struck together past cbrt(x).
_PAIRS = 1 << 18


def digamma(z: np.ndarray | float) -> np.ndarray:
    """psi(z) for real z > 0: the recurrence psi(z) = psi(z + 1) - 1/z up to
    z >= 12, then ln z - 1/(2z) - sum of B_2j / (2j z^2j)."""
    z = np.array(z, dtype=np.float64)
    shift = np.zeros_like(z)
    for _ in range(_DIGAMMA_SHIFT):
        low = z < _DIGAMMA_SHIFT
        if not low.any():
            break
        shift[low] += 1.0 / z[low]
        z[low] += 1.0
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    for term in reversed(_DIGAMMA_TERMS):
        series = (series + term) * w
    return np.log(z) - 0.5 / z - series - shift


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
    m <= sqrt(x) / 400 (50 at 4e8, 158 at 4e9) sits a little below both.  The tables hold phi(k) rows of 2 sqrt(x) counts and
    sums, so phi(k) sqrt(x) <= 2^21 keeps them within 64 MiB (at 10^12:
    k = 1, 2, 3, 4, 6).
    """
    root = math.isqrt(x)
    if 400 * math.lcm(2, k) > root:  # before phi(k), which factors k
        return False
    phi = euler_phi(k)
    return 400 * phi * math.lcm(2, k) <= root and phi * root <= 1 << 21


@dataclass(frozen=True)
class ClassTables:
    """pi and the sum of 1/p by class at the floor values of x.

    values is V ascending; units the unit residues mod k, one row each;
    counts (int64) and reciprocals (float64) have one row per unit and one
    column per value of V.
    """

    x: int
    modulus: int
    values: np.ndarray
    units: tuple[int, ...]
    counts: np.ndarray
    reciprocals: np.ndarray

    def column(self, v: int) -> int:
        """The column of a floor value v (v <= isqrt(x), or v = x // i)."""
        r = math.isqrt(self.x)
        return v - 1 if v <= r else self.values.size - self.x // v

    def at(self, v: int, residue: int) -> tuple[int, float]:
        """(pi(v; k, a), sum of 1/p over those primes) for a floor value v."""
        row, col = self.units.index(residue % self.modulus), self.column(v)
        return int(self.counts[row, col]), float(self.reciprocals[row, col])


def class_tables(x: int, k: int) -> ClassTables:
    """The tables of pi(v; k, a) and of the sum of 1/p, p <= v, p = a mod k."""
    if x < 2 or k < 1:
        raise ValueError(f"need x >= 2 and k >= 1, got x = {x}, k = {k}")
    r = math.isqrt(x)
    q = r if x // r > r else r - 1  # the large values x // i > r have i <= q
    # i of each large column x // i (0 for the small ones), ascending v
    divisor = np.concatenate([np.zeros(r, np.int64), np.arange(q, 0, -1, dtype=np.int64)])
    values = np.concatenate([np.arange(1, r + 1, dtype=np.int64), x // divisor[r:]])
    size = values.size
    units = tuple(a for a in range(k) if math.gcd(a, k) == 1)

    # start values: the n in [2, v] with n = a mod k; a' in [1, k] is the least
    # such n, and a', a' + k, ..., a' + jk lie in [1, v].  Over the class, the
    # sum of 1/n is (psi(a'/k + j + 1) - psi(a'/k)) / k, the constant
    # -psi(a'/k) / k taken as its first 12 terms plus a tail at z >= 12.
    counts = np.empty((len(units), size), dtype=np.int64)
    recips = np.empty((len(units), size))
    for row, a in enumerate(units):
        lead = a or k
        j = (values - lead) // k
        np.maximum(j + 1, 0, out=counts[row])
        head = math.fsum(1.0 / (lead + i * k) for i in range(_DIGAMMA_SHIFT))
        constant = head - float(digamma(lead / k + _DIGAMMA_SHIFT)) / k
        recips[row] = np.where(j >= 0, digamma(lead / k + (j + 1)) / k + constant, 0.0)
        if lead == 1:  # n = 1 is not counted
            counts[row] -= 1
            recips[row] -= 1.0

    # perm[b][row of a] is the row of a / b mod k, for every unit b
    index = {a: i for i, a in enumerate(units)}
    perm = np.zeros((k, len(units)), dtype=np.int64)
    for b in units:
        inv = pow(b, -1, k) if k > 1 else 0
        perm[b] = [index[a * inv % k] for a in units]
    primes = primes_upto_monolithic(r)
    primes = primes[k % primes != 0]
    # A prime p <= cbrt(x) strikes columns it also reads (v // p >= p^2 for
    # v >= p^3), so these go one by one, each reading the table before it writes.
    cube = primes * primes * primes <= x
    for p in primes[cube].tolist():
        lo = int(np.searchsorted(values, p * p))
        w = values[lo:] // p
        src = np.where(w <= r, w - 1, size - divisor[lo:] * p)
        del w
        rows = perm[p % k][:, None]
        for table in counts, recips:
            hit = table[rows, src]
            hit -= table[rows, p - 2]  # the column of p - 1
            if table is recips:
                hit /= p
            table[:, lo:] -= hit
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
        np.subtract.at(recips, (every, dst), (recips[rows, src] - recips[rows, below]) / p[:, None])
        start = stop
    return ClassTables(x, k, values, units, counts, recips)
