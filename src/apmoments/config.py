"""Tunable constants shared across the package.

Segment, prime-block and member block sizes, the prime cache budget,
quadrature tolerances, the CDF grid and the probe verdict thresholds are
plain module constants, not per-call options or config classes (only the
bare quadrature routine, adaptive_simpson, takes a tolerance and depth).
The block sizes and the cache budget are read at call time from the module
that uses them, so another geometry is set there, e.g.
``apmoments.sieve.SIEVE_BLOCK`` or ``apmoments.arith_fn.MEMBER_BLOCK``.
The u_max defaults are per-call arguments.
"""

from __future__ import annotations

# Sieve geometry.  SIEVE_BLOCK counts member flags, not integers: a segment
# holds one flag per member of the sieved class mod lcm(2, k), so 2^20 flags
# (1 MiB) span 2^21 integers for the cache's odd numbers and 2^22 for a class
# mod 4.  A 1 MiB buffer fits the 2 MiB per-core L2 of the 2 vCPU Xeon the
# sizes were first measured on (odd-number segments of 2^19, 2^20 and 2^21
# flags: 0.93, 0.86 and 0.87 s streaming 1 mod 4 to 4e8 with the sieve then).
SIEVE_BLOCK = 1 << 20
SIEVE_CEILING = 1 << 34
# A prime pass whose f is constant past y = n // (n // 10^6) counts the
# primes past y by class (counting.counted_limit) up to this limit, where the
# sieve stops at SIEVE_CEILING; 10^12 takes about 13 s and 129 MiB for a `sum`
# at k = 4 (23 s and 192 MiB for `model exact`, which also sums p^-2, p^-3).
COUNTING_CEILING = 10**12
# The sieve memoizes full prime arrays only up to this limit, as uint32
# (664,579 primes at 10^7, 2.6 MB; the limit must stay below 2^32).  Beyond
# it the sieve streams blocks; it decides no route.  Why 10^7: past it the
# class sieve streams one class faster than a cache fill sieves every prime
# to cut the class out (the sum of 1/p over 1 mod 4 to 10^8 as a process's
# first op: 0.09 s against 0.17 s on one CPU; with the streamed pass split
# across two CPUs, 0.06-0.07 s against 0.10-0.12 s on one in the same runs),
# and a cache to 10^8 holds 5.76M primes (23 MB).  On a 2 vCPU Xeon,
# perfbench's primes_model peaks at 45.0 MiB with
# this cap and at 65.5 MiB with a cache to 2*10^8.
PRIME_CACHE_MAX = 10_000_000
# Most primes in one block, cached or streamed, and most Monte Carlo
# successes in one piece.  Every consumer takes the blocks as they come:
# the model's u_max per-prime cumulant rows of PRIME_CHUNK float64 stay a
# few MB at u_max = 10, and `sieve` formats one block of text at a time
# (a cached chunk of 2^19 primes took ~55 MB).
PRIME_CHUNK = 1 << 16

# Progression-member evaluation block (number of members per batch).  Every
# per-member pass (the sweep's f(rest) tail, moments, coverage, the lattice
# fold and the bounded KS) runs on a block in pieces of MEMBER_BLOCK / 8
# values (arith_fn.piece_length): 512 KiB of float64, so a piece and its
# temporaries stay in the 2 MiB L2, while the block stays long enough for
# the sweep's strided rows (2^17 and 2^16 made the lattice sweep slower).
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

# Probe verdicts extrapolate a geometric tail from the last two checkpoint
# increments: if they decay with ratio r < PROBE_MAX_RATIO and the tail
# d*r/(1-r) is below PROBE_TAIL_FRACTION of the current magnitude, the
# quantity is converging.  Magnitude growth by PROBE_GROWTH_FACTOR across
# the last two checkpoints, or non-decaying increments, mean diverging.
PROBE_GROWTH_FACTOR = 1.5
PROBE_TAIL_FRACTION = 0.10
PROBE_MAX_RATIO = 0.95

# Default geometric checkpoints for probes.
PROBE_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6, 10**7)
