"""Distribution diagnostics: normal CDF, KS distance, normality reports.

The headline statistic everywhere is the Kolmogorov-Smirnov sup-norm gap
between an empirical CDF and the standard normal, measured after
centering and scaling by either (mean, deviation) or (mean, sqrt(mean)).
Raw distances only; no p-values.

A dataset is what :mod:`moments` gives (:func:`moments.collect_datasets`,
the one route of `moments`, `ektest` and `compare`): a table of distinct
values and counts on a lattice of step c (counted, or a lattice spec's
sweep or spill file folded into it), or per-member values (one array, or
a spill file read in blocks), each with its moments.  A table gives the
normalization (center and scale), the KS gap, the CDF grid and the
discreteness floor (largest point mass / 2) directly, and Esseen's
continuity-corrected KS at the step c, which compares the empirical CDF
at each value x with the normal CDF at the half-lattice point x + c/2.

The CDF grid sits at evenly spaced normal quantiles, found by Newton's
method on ``math.erf``.  Either kind of dataset is read through
``moments.iter_blocks``: a table whole, per-member values in the sweep's
blocks, and each block in pieces of ``arith_fn.piece_length`` values, so
that a pass's temporaries stay in L2.

Per-member values are never sorted.  The center, scale and range come
from the dataset's moments, fed with the sweep's blocks as ``moments``
feeds them (so the center is the ``moments`` mean bit for bit), and one
pass counts the values into equal-width range bins
and into at most 2^16 hash buckets, whose counts (512 KiB) stay in L2
beside a piece.  The empirical CDF and Phi are both monotone, so
the counts before and after a bin and Phi at its edges bound every gap
inside it; only the bins whose bound can reach the largest gap, and the
bins around the CDF grid points, are read again and tabled exactly, and
evaluated with :func:`ks_distance`'s own formula.  Equal values share a
bucket, so a bucket's count bounds its largest tie, and only buckets that
could beat the largest tie found are tabled.  The results equal those of
the full table of distinct values, and a spill file gives the same
report as the sweep that wrote it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith_fn import Extension, PrimeFunction, piece_length
from .config import CDF_GRID_HI, CDF_GRID_LO, CDF_GRID_POINTS
from .moments import SpillFile, collect_datasets, iter_blocks, spill_dataset
from .sieve import Progression

NORMALIZATIONS = ("sigma", "sqrt_mean")


def phi(x: float) -> float:
    """Standard normal CDF via the complementary error integral."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_distance(x: np.ndarray, counts: np.ndarray, center: float, scale: float) -> float:
    """KS statistic of (values - center)/scale against the standard normal.

    The values come as ``x, counts = np.unique(values, return_counts=True)``.
    Over a run of tied values the per-value gaps peak at its last value
    (F_emp - Phi) and its first (Phi - F_emp before it): one Phi per run.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if x.size == 0:
        raise ValueError("values must be non-empty")
    upto = np.cumsum(counts)
    return _ks_gaps(x, counts, upto, upto[-1], center, scale)


def _ks_gaps(
    x: np.ndarray, counts: np.ndarray, upto: np.ndarray, m: int, center: float, scale: float
) -> float:
    """Largest gap at the distinct values x of m values in all, with
    upto[i] of them at most x[i]: F_emp after x[i] against Phi, and Phi
    against F_emp before x[i]."""
    cdf = _phi_at((np.asarray(x, dtype=np.float64) - center) / scale)
    d_plus = float(np.max(upto / m - cdf))
    d_minus = float(np.max(cdf - (upto - counts) / m))
    return max(d_plus, d_minus)


def _phi_at(z: np.ndarray) -> np.ndarray:
    return 0.5 * np.fromiter(map(math.erfc, -z / math.sqrt(2.0)), np.float64, z.size)


def ks_lattice(
    x: np.ndarray, counts: np.ndarray, center: float, scale: float, step: float
) -> float:
    """Continuity-corrected KS for values on a lattice of the given step.

    sup over the distinct values x_i of |F_emp(x_i) - Phi((x_i + step/2 -
    center)/scale)|: Esseen's correction, which compares the empirical CDF
    of a lattice variable with the normal CDF half a step past each value.
    """
    cdf = _phi_at((np.asarray(x, dtype=np.float64) + step / 2.0 - center) / scale)
    upto = np.cumsum(counts)
    return float(np.max(np.abs(upto / upto[-1] - cdf)))


@dataclass(frozen=True)
class NormalityReport:
    n: int
    count: int
    normalization: str
    center: float
    scale: float
    ks: float
    ks_floor: float  # largest point mass / 2: no continuous CDF gets closer
    ks_lattice: float | None  # continuity-corrected KS, None off a lattice
    grid: tuple[tuple[float, float, float], ...]  # (x, empirical, normal cdf)


def _grid_points() -> list[float]:
    """The normal quantiles of the CDF grid, by Newton's method on
    erf(t / sqrt 2) / 2 = q - 1/2 from t = 0 (erf is odd: the middle is 0.0)."""
    ts = []
    for q in np.linspace(CDF_GRID_LO, CDF_GRID_HI, CDF_GRID_POINTS).tolist():
        t = 0.0
        for _ in range(16):  # monotone (erf is concave past 0); 7 steps settle q = 0.025
            gap = 0.5 * math.erf(t / math.sqrt(2.0)) - (q - 0.5)
            t -= gap * math.sqrt(2.0 * math.pi) * math.exp(0.5 * t * t)
        ts.append(t)
    return ts


def _cdf_grid(
    x: np.ndarray, counts: np.ndarray, center: float, scale: float
) -> tuple[tuple[float, float, float], ...]:
    xs = _grid_points()
    below = np.concatenate(([0], np.cumsum(counts)))  # values before each distinct one
    steps = np.searchsorted((x - center) / scale, xs, side="right")
    return tuple((t, float(below[i]) / below[-1], phi(t)) for t, i in zip(xs, steps))


# Range bins and tie buckets of the bounded KS: caps, a dataset of m values
# takes at most the power of two >= m of each.  The bucket count must be a
# power of two (a bucket is the top bits of a 64-bit hash).  2^16 buckets
# count into 512 KiB, which stays in L2 beside a piece of values; with 2^20
# (8 MiB) the piecewise counting was slower than whole blocks.
_KS_BINS = 1 << 14
_TIE_BUCKETS = 1 << 16
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd, so the multiply permutes 64-bit words
# A bin bound and a per-value gap are each a few roundings of numbers in
# [0, 1] (and Phi is rounded at the edges and at the values alike); a bin
# is read again when its bound comes within this of the largest gap.
_BOUND_SLACK = 1e-12


def _bounded_ks(
    values: np.ndarray | SpillFile, lo: float, hi: float, center: float, scale: float
) -> tuple[float, int, tuple[tuple[float, float, float], ...]]:
    """(KS, largest tie, CDF grid) of per-member values in [lo, hi], equal
    to ks_distance, counts.max() and _cdf_grid on their np.unique table.

    Bin i holds the values v with floor((v - lo) * per) = i (the last bin
    also those at hi), so the bin index is monotone in v.  Its edges are
    widened outward by 64 ulps of max(|lo|, |hi|), far more than the rounding
    of the index and the edges, so every value of bin i lies within them.
    Between the edges F_emp runs from before[i]/m to before[i+1]/m and Phi
    from Phi(left) to Phi(right), which bounds each gap inside the bin.
    """
    m, piece = values.size, piece_length()
    size = 1 << (m - 1).bit_length()  # power of two >= m
    nbins, nbuckets = min(_KS_BINS, size), min(_TIE_BUCKETS, size)
    span = hi - lo
    per = nbins / span if span > 0.0 else math.inf
    if not math.isfinite(per) or not math.isfinite(span):
        nbins, per, edges = 1, 0.0, np.array([lo, hi])
    else:
        edges = lo + np.arange(nbins + 1) * (span / nbins)
    widen = 64.0 * float(np.spacing(max(abs(lo), abs(hi))))
    z_left = (edges[:-1] - widen - center) / scale
    z_right = (edges[1:] + widen - center) / scale
    shift = np.uint64(64 - (nbuckets.bit_length() - 1))

    def bin_of(v: np.ndarray) -> np.ndarray:
        t = v - lo
        t *= per
        at = t.astype(np.int64)
        return np.minimum(at, nbins - 1, out=at)

    def bucket_of(v: np.ndarray) -> np.ndarray:
        # + 0.0 turns -0.0 into +0.0, which np.unique counts as one value
        h = (v + 0.0).view(np.uint64)
        h *= _HASH_MUL
        h >>= shift
        return h.view(np.int64)  # below the bucket count now; bincount takes it as is

    def pieces():
        # every pass reads the values in pieces, so its temporaries stay in L2
        for block, _ in iter_blocks(values):
            yield from np.split(block, range(piece, block.size, piece))

    in_bin = np.zeros(nbins, dtype=np.int64)
    in_bucket = np.zeros(nbuckets, dtype=np.int64)
    for part in pieces():
        in_bin += np.bincount(bin_of(part), minlength=nbins)
        in_bucket += np.bincount(bucket_of(part), minlength=nbuckets)
    before = np.concatenate(([0], np.cumsum(in_bin)))
    bound = np.maximum(before[1:] / m - _phi_at(z_left), _phi_at(z_right) - before[:-1] / m)
    bound[in_bin == 0] = -math.inf

    def tabled(bins: np.ndarray, buckets: np.ndarray):
        """The distinct values and counts of the chosen bins, and the
        largest tie in the chosen buckets, from one more pass."""
        in_bins, in_buckets = [], []
        for part in pieces():
            in_bins.append(part[bins[bin_of(part)]])
            in_buckets.append(part[buckets[bucket_of(part)]])
        x, counts = np.unique(np.concatenate(in_bins), return_counts=True)
        ties = np.unique(np.concatenate(in_buckets), return_counts=True)[1]
        return x, counts, int(ties.max(initial=0))

    def gap(x: np.ndarray, counts: np.ndarray) -> float:
        # x ascends and bin_of is monotone, so each bin's values are one run
        at = bin_of(x)
        upto = np.cumsum(counts)
        first = np.searchsorted(at, at)
        upto = before[at] + upto - (upto[first] - counts[first])
        return _ks_gaps(x, counts, upto, m, center, scale)

    ts = _grid_points()
    # bins [a, b) may hold values on both sides of t; those before a are all <= t
    spans = [(int(np.searchsorted(z_right, t, side="right")),
              int(np.searchsorted(z_left, t, side="right"))) for t in ts]
    bins = np.zeros(nbins, dtype=bool)
    bins[int(np.argmax(bound))] = True
    for a, b in spans:
        bins[a:b] = True
    buckets = np.zeros(nbuckets, dtype=bool)
    buckets[int(np.argmax(in_bucket))] = True
    x, counts, tie = tabled(bins, buckets)
    ks = gap(x, counts)
    z = (x - center) / scale
    at = bin_of(x)
    grid = []
    for t, (a, b) in zip(ts, spans):
        below = before[a] + int(counts[(at >= a) & (at < b) & (z <= t)].sum())
        grid.append((t, float(below) / m, phi(t)))

    more_bins = (bound > ks - _BOUND_SLACK) & ~bins
    more_buckets = (in_bucket > tie) & ~buckets
    if more_bins.any() or more_buckets.any():
        x, counts, more_tie = tabled(more_bins, more_buckets)
        if x.size:
            ks = max(ks, gap(x, counts))
        tie = max(tie, more_tie)
    return ks, tie, tuple(grid)


def erdos_kac_report(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n: int,
    normalization: str = "sqrt_mean",
    spill: str | Path | None = None,
) -> NormalityReport:
    """KS distance of normalized f values against the standard normal.

    normalization="sigma" centers at the mean and scales by the
    deviation; "sqrt_mean" scales by sqrt(mean) and is only offered for
    nonnegative functions bounded by 1 at primes, the regime where that
    scaling has a normal limit.  The dataset is the one `moments` reads
    (:func:`moments.collect_datasets`, with its moments, range and lattice
    step), or that of an existing spill file of it (its sidecar must name
    it; :func:`moments.spill_dataset`).  A table gives everything
    directly, and Esseen's corrected KS at the dataset's step; per-member
    values are read again, in the sweep's blocks, only for the bounded KS,
    the largest tie and the grid.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if normalization == "sqrt_mean" and not (fn.nonnegative and fn.bounded_by_one):
        raise ValueError(
            "sqrt_mean normalization requires 0 <= f(p) <= 1; use sigma instead"
        )
    if spill is not None:
        data = spill_dataset(spill, fn, ext, progression, n, 2)
    else:
        (data,) = collect_datasets([(fn, ext)], progression, n, 2)
    count = progression.count(n)
    if count < 2:
        raise ValueError("degenerate progression: need at least 2 members")
    x, counts, acc = data.x, data.counts, data.moments
    center = acc.mean
    if normalization == "sigma":
        scale = acc.sigma
        if scale <= 0.0:
            raise ValueError("degenerate normalization: deviation is 0")
    else:
        if center <= 0.0:
            raise ValueError("degenerate normalization: mean is not positive")
        scale = math.sqrt(center)
    corrected = None
    if counts is None:
        ks, tie, grid = _bounded_ks(x, acc.lo, acc.hi, center, scale)
    else:
        ks, tie = ks_distance(x, counts, center, scale), int(counts.max())
        corrected = ks_lattice(x, counts, center, scale, data.step)
        grid = _cdf_grid(x, counts, center, scale)
    floor = tie / count / 2.0
    return NormalityReport(n, count, normalization, center, scale, ks, floor, corrected, grid)
