"""Distribution diagnostics: normal CDF, KS distance, normality reports.

The headline statistic everywhere is the Kolmogorov-Smirnov sup-norm gap
between an empirical CDF and the standard normal, measured after
centering and scaling by either (mean, deviation) or (mean, sqrt(mean)).
Raw distances only; no p-values.

A dataset is one table of distinct values and counts.  A lattice spec's
sweep folds its values straight into it, and so does its spill file; any
other per-member array (a sweep or a spill file) is sorted into it once.
The empirical CDF only steps at those values, so the normalization
(center and scale), the KS gap, the CDF grid and the discreteness floor
(largest point mass / 2) are all read off that table; the same dataset
gives the same report from a sweep or from its spill file.  For lattice
values with step c the table also gives Esseen's continuity-corrected
KS, which compares the empirical CDF at each value x with the normal CDF
at the half-lattice point x + c/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith_fn import Extension, PrimeFunction, increment_table, lattice_steps
from .config import CDF_GRID_HI, CDF_GRID_LO, CDF_GRID_POINTS
from .moments import CoMoments, collect_dataset, read_spill, value_table
from .sieve import Progression

NORMALIZATIONS = ("sigma", "sqrt_mean")


def phi(x: float) -> float:
    """Standard normal CDF via the complementary error integral."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def phi_inv(q: float, tol: float = 1e-12) -> float:
    """Inverse normal CDF by bisection (phi is strictly increasing)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    lo, hi = -13.0, 13.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    cdf = _phi_at((np.asarray(x, dtype=np.float64) - center) / scale)
    upto = np.cumsum(counts)
    m = upto[-1]
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


def _cdf_grid(
    x: np.ndarray, counts: np.ndarray, center: float, scale: float
) -> tuple[tuple[float, float, float], ...]:
    qs = np.linspace(CDF_GRID_LO, CDF_GRID_HI, CDF_GRID_POINTS)
    xs = [phi_inv(float(q)) for q in qs]
    below = np.concatenate(([0], np.cumsum(counts)))  # values before each distinct one
    steps = np.searchsorted((x - center) / scale, xs, side="right")
    return tuple((t, float(below[i]) / below[-1], phi(t)) for t, i in zip(xs, steps))


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
    scaling has a normal limit.  Values come from an existing spill file
    when given, otherwise from one member sweep; either way they become one
    value/count table, folded on the spec's lattice when it has one, and
    everything is read off that table.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if normalization == "sqrt_mean" and not (fn.nonnegative and fn.bounded_by_one):
        raise ValueError(
            "sqrt_mean normalization requires 0 <= f(p) <= 1; use sigma instead"
        )
    specs = [(fn, ext)]
    rows = increment_table(specs, progression, n)
    (step,) = lattice_steps(specs, rows, n)
    if spill is not None:
        x, counts = value_table(read_spill(spill), step)
    else:
        x, counts = collect_dataset(fn, ext, progression, n, rows=rows)
    if counts is None:
        x, counts = np.unique(x, return_counts=True)
    count = progression.count(n)
    total = int(counts.sum())
    if total != count:
        raise ValueError(f"expected {count} values, got {total}")
    if count < 2:
        raise ValueError("degenerate progression: need at least 2 members")
    acc = CoMoments(2)
    acc.add_batch(x, counts)
    center = acc.mean
    if normalization == "sigma":
        scale = acc.sigma
        if scale <= 0.0:
            raise ValueError("degenerate normalization: deviation is 0")
    else:
        if center <= 0.0:
            raise ValueError("degenerate normalization: mean is not positive")
        scale = math.sqrt(center)
    ks = ks_distance(x, counts, center, scale)
    floor = float(counts.max()) / count / 2.0
    corrected = None if step is None else ks_lattice(x, counts, center, scale, step)
    grid = _cdf_grid(x, counts, center, scale)
    return NormalityReport(n, count, normalization, center, scale, ks, floor, corrected, grid)
