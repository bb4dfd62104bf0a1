"""Tunable constants shared across the package.

Everything here is a plain default.  Where a function also takes one of
these values as a keyword argument (segment and member block sizes,
quadrature tolerances, u_max), experiments can override it there without
touching module state.
"""

from __future__ import annotations

from dataclasses import dataclass

# Sieve geometry.  Blocks of 2^20 integers keep segment state inside L2
# cache while bounding memory for limits well past 10^8.
SIEVE_BLOCK = 1 << 20
SIEVE_CEILING = 1 << 34
# Full prime arrays are memoized only up to this limit (5.76M primes at
# 10^8 is ~46 MB of int64; beyond ~2*10^8 callers should iterate blocks).
PRIME_CACHE_MAX = 200_000_000
# Chunk length used when replaying cached primes to block consumers.
PRIME_CHUNK = 1 << 19

# Primes per row block of the model's per-prime moment recursion: its two
# (u_max + 1) x MODEL_BLOCK float64 matrices stay a few MB at u_max = 10.
MODEL_BLOCK = 1 << 16

# Progression-member evaluation block (number of members per batch).
MEMBER_BLOCK = 1 << 19

# Adaptive Simpson quadrature.
QUAD_REL_TOL = 1e-9
QUAD_MAX_DEPTH = 48

# Central-moment orders: default cap and the hard cap the conversion
# recursions are tested to.
U_MAX_DEFAULT = 6
U_MAX_CAP = 10

# Chebyshev coverage radii reported by default.
CHEBYSHEV_B_DEFAULT = (1.5, 2.0, 3.0)

# CDF comparison grid: 21 points at evenly spaced normal quantiles.
CDF_GRID_LO = 0.025
CDF_GRID_HI = 0.975
CDF_GRID_POINTS = 21


@dataclass(frozen=True)
class ProbeThresholds:
    """Declared constants behind the convergence/divergence verdicts.

    The verdict logic extrapolates a geometric tail from the last two
    checkpoint increments: if increments decay with ratio r < max_ratio
    and the extrapolated tail d*r/(1-r) is below tail_fraction of the
    current magnitude, the quantity is called converging.  Magnitude
    growth by growth_factor across the last two checkpoints, or
    non-decaying increments, force a diverging verdict.
    """

    growth_factor: float = 1.5
    tail_fraction: float = 0.10
    max_ratio: float = 0.95


DEFAULT_PROBE_THRESHOLDS = ProbeThresholds()

# Default geometric checkpoints for probes.
PROBE_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6, 10**7)
