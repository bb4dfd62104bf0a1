"""Empirical moments of additive functions over progression members.

A dataset is one float64 array of f over the members, filled by one
member sweep; its moments, Chebyshev/LLN coverage and spill file are all
read off that array.  Moments feed the array to a mergeable central-moment
state in slices of the sweep's block length; the merge rule is exact in
real arithmetic, so chunked evaluation matches a two-pass computation up
to rounding.  The mean additionally has an exact closed-form cross-check
for strongly additive functions, obtained by counting multiples of each
prime inside the progression.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from . import sieve
from .arith_fn import Extension, PrimeFunction, collect_values
from .config import CHEBYSHEV_B_DEFAULT, MEMBER_BLOCK, U_MAX_CAP, U_MAX_DEFAULT
from .sieve import Progression

_BINOM_CACHE: dict[int, np.ndarray] = {}


def _binom_row(n: int) -> np.ndarray:
    row = _BINOM_CACHE.get(n)
    if row is None:
        row = np.array([math.comb(n, j) for j in range(n + 1)], dtype=np.float64)
        _BINOM_CACHE[n] = row
    return row


class CoMoments:
    """Running state for central moments up to order u_max.

    Tracks n, the mean, and the centered power sums M_j = sum (x - mean)^j
    for j = 2..u_max.  Batches are absorbed by computing their exact local
    statistics and merging, which keeps the update one-pass over the data
    while staying associative.
    """

    def __init__(self, u_max: int = U_MAX_DEFAULT):
        if not 2 <= u_max <= U_MAX_CAP:
            raise ValueError(f"u_max must be in [2, {U_MAX_CAP}], got {u_max}")
        self.u_max = u_max
        self.n = 0
        self.mean = 0.0
        self.m = np.zeros(u_max + 1)  # m[j] = M_j; m[0], m[1] unused

    def add_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        bn = values.size
        bmean = float(values.mean())
        d = values - bmean
        bm = np.zeros(self.u_max + 1)
        power = d * d
        for j in range(2, self.u_max + 1):
            bm[j] = float(power.sum())
            power = power * d
        self._merge_raw(bn, bmean, bm)

    def _merge_raw(self, bn: int, bmean: float, bm: np.ndarray) -> None:
        if bn == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m = bn, bmean, bm
            return
        an, amean, am = self.n, self.mean, self.m
        n = an + bn
        delta = bmean - amean
        sa = -delta * bn / n  # shift applied to side A deviations
        sb = delta * an / n
        out = np.zeros(self.u_max + 1)
        for p in range(2, self.u_max + 1):
            comb = _binom_row(p)
            total = 0.0
            for j in range(0, p + 1):
                ma = an if p - j == 0 else (0.0 if p - j == 1 else am[p - j])
                mb = bn if p - j == 0 else (0.0 if p - j == 1 else bm[p - j])
                total += comb[j] * (ma * sa**j + mb * sb**j)
            out[p] = total
        self.n = n
        self.mean = amean + delta * bn / n
        self.m = out

    def central_moments(self) -> dict[int, float]:
        if self.n == 0:
            raise ValueError("no data")
        return {u: float(self.m[u] / self.n) for u in range(2, self.u_max + 1)}

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.m[2] / self.n, 0.0)) if self.n else 0.0


@dataclass(frozen=True)
class MomentSummary:
    n: int
    progression: Progression
    count: int
    mean: float
    sigma: float
    mu: dict[int, float]  # central moments for u = 2..u_max

    @property
    def u_max(self) -> int:
        return max(self.mu)


@dataclass(frozen=True)
class ChebyshevReport:
    b_values: tuple[float, ...]
    coverage: tuple[float, ...]
    bounds: tuple[float, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class LlnRecord:
    n: int
    b: float
    coverage_sigma: float | None  # radius b * sigma_n
    coverage_sqrt_mean: float | None  # radius b * sqrt(mean), None if mean <= 0
    bound: float
    skipped: bool = False


def moment_summary(
    values: np.ndarray, progression: Progression, n: int, u_max: int = U_MAX_DEFAULT
) -> MomentSummary:
    """Mean, deviation, and central moments of one dataset's values, fed to
    the running state in MEMBER_BLOCK slices (the member sweep's blocks)."""
    if values.size == 0:
        raise ValueError(
            f"no progression members <= {n} (first member is {progression.first_member})"
        )
    acc = CoMoments(u_max)
    for lo in range(0, values.size, MEMBER_BLOCK):
        acc.add_batch(values[lo : lo + MEMBER_BLOCK])
    return MomentSummary(n, progression, acc.n, acc.mean, acc.sigma, acc.central_moments())


def empirical_moments(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    block_members: int = MEMBER_BLOCK,
    spill: str | Path | None = None,
) -> MomentSummary:
    """Mean, deviation, and central moments of f over members up to n.

    The values are swept once into one array (one float64 per member); with
    `spill` set that array is also written with :func:`write_spill` for
    later re-use by the distribution diagnostics.
    """
    values = collect_values(fn, ext, progression, n, block_members)
    summary = moment_summary(values, progression, n, u_max)
    if spill is not None:
        write_spill(spill, values)
    return summary


def read_spill(path: str | Path) -> np.ndarray:
    return np.fromfile(path, dtype="<f8")


@contextmanager
def atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that replaces `path` only when the block completes: it is
    written as a temporary sibling and renamed, so no partial file survives
    an error.  Every output file (reports, spills) is written this way."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".apmoments-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_spill(path: str | Path, values: np.ndarray) -> None:
    with atomic_file(path) as fh:
        values.astype("<f8", copy=False).tofile(fh)


def two_pass_central_moments(values: np.ndarray, u_max: int) -> dict[int, float]:
    """Naive oracle: mean first, then averaged deviation powers."""
    mean = float(np.mean(values))
    d = values - mean
    return {u: float(np.mean(d**u)) for u in range(2, u_max + 1)}


def mean_via_counts(
    fn: PrimeFunction, ext: Extension, progression: Progression, n: int
) -> float:
    """Exact progression mean of a strongly additive f from prime counts.

    For each prime p not dividing the modulus, the members divisible by p
    form a single residue class mod p*k (solve m = residue mod k, m = 0
    mod p), so the number of such members has a closed form and the mean
    is sum f(p) * N_p / count.  Primes dividing the modulus divide no
    member at all.
    """
    if not ext.is_strongly_additive:
        raise ValueError("mean_via_counts requires a strongly additive extension")
    count = progression.count(n)
    if count == 0:
        raise ValueError(
            f"no progression members <= {n} (first member is {progression.first_member})"
        )
    k, l = progression.modulus, progression.residue
    primes = sieve.sieve_primes(n).primes
    primes = primes[k % primes != 0]
    if primes.size == 0:
        return 0.0

    inv = np.array(
        [pow(r, -1, k) if math.gcd(r, k) == 1 else 0 for r in range(k)],
        dtype=np.int64,
    )
    t0 = (l * inv[primes % k]) % k
    t0[t0 == 0] = k
    m0 = primes * t0
    counts = (n - m0) // (primes * k) + 1
    counts[m0 > n] = 0

    fvals = fn.values_at(primes)
    return float(np.dot(fvals, counts.astype(np.float64))) / count


def _count_within(values: np.ndarray, center: float, radii: Sequence[float]) -> list[int]:
    """Per radius r, how many values satisfy |value - center| <= r (block-sized temporaries)."""
    inside = [0] * len(radii)
    for lo in range(0, values.size, MEMBER_BLOCK):
        dev = np.abs(values[lo : lo + MEMBER_BLOCK] - center)
        for i, r in enumerate(radii):
            inside[i] += int(np.count_nonzero(dev <= r))
    return inside


def chebyshev_check(
    summary: MomentSummary,
    values: np.ndarray,
    b_values: Sequence[float] = CHEBYSHEV_B_DEFAULT,
) -> ChebyshevReport:
    """Empirical coverage P(|f - mean| <= b*sigma) next to the 1 - 1/b^2 bound.

    `values` is the dataset's array, the one `summary` was taken from.  The
    inequality holds exactly for any finite population; a zero deviation
    makes every coverage 1 and is flagged degenerate.
    """
    bs = tuple(float(b) for b in b_values)
    if summary.sigma == 0.0:
        return ChebyshevReport(bs, tuple(1.0 for _ in bs), _bounds(bs), degenerate=True)
    if values.size != summary.count:
        raise ValueError(f"value array has {values.size} entries, summary counted {summary.count}")
    inside = _count_within(values, summary.mean, [b * summary.sigma for b in bs])
    return ChebyshevReport(bs, tuple(float(c) / values.size for c in inside), _bounds(bs))


def _bounds(bs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(max(0.0, 1.0 - 1.0 / (b * b)) for b in bs)


# Catalogued unboundedly increasing b(n) choices for the LLN-style checks.
LLN_B_CHOICES: dict[str, Callable[[int], float]] = {
    "cbrt_loglog": lambda n: math.log(math.log(n)) ** (1.0 / 3.0),
    "sqrt_loglog": lambda n: math.sqrt(math.log(math.log(n))),
    "loglog": lambda n: math.log(math.log(n)),
}


def lln_check(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n_list: Sequence[int],
    b_of_n: str | Callable[[int], float] = "cbrt_loglog",
    block_members: int = MEMBER_BLOCK,
) -> list[LlnRecord]:
    """Coverage trend for radii b(n)*sigma_n and b(n)*sqrt(mean_n).

    Reports one record per n; the sqrt-mean radius is skipped (record
    flagged) when the mean is not positive.
    """
    b_fn = LLN_B_CHOICES[b_of_n] if isinstance(b_of_n, str) else b_of_n
    records = []
    for n in n_list:
        values = collect_values(fn, ext, progression, n, block_members)
        summary = moment_summary(values, progression, n, u_max=2)
        b = float(b_fn(n))
        bound = max(0.0, 1.0 - 1.0 / (b * b))
        use_mean = summary.mean > 0.0
        radii = [b * summary.sigma] + ([b * math.sqrt(summary.mean)] if use_mean else [])
        inside = _count_within(values, summary.mean, radii)
        sqrt_mean = inside[1] / summary.count if use_mean else None
        records.append(LlnRecord(n, b, inside[0] / summary.count, sqrt_mean, bound, not use_mean))
    return records
