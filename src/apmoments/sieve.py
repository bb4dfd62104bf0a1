"""Segmented prime sieve, progression filtering, and trial-division factorization.

All operations are deterministic and pure given their inputs.  Prime
arrays returned here are read-only numpy views; a module-level cache
memoizes the largest sieved range so repeated sums over the same limit
do not pay for sieving twice.

The sieve (Bays & Hudson's segmented sieve) keeps one flag per odd number
of a segment.  Each segment starts as a copy of a small-prime wheel
pattern with the odd multiples of 3, 5, 7, 11 and 13 already struck
(Pritchard's pre-sieve; period 15015 flags), so only the base primes from
17 up strike, one slice each at offsets computed as one vector per
segment.  The odd members of a residue class mod k are every s-th flag
(s = k/2 for even k, s = k for odd k), so a class's primes are read off
that strided view: the streamed path never reduces a prime mod k.  The
cache holds every prime and cuts a class out of it with np.compress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import PRIME_CACHE_MAX, PRIME_CHUNK, SIEVE_BLOCK, SIEVE_CEILING


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression residue, residue+modulus, ... meeting [1, n].

    modulus=1, residue=0 denotes the full natural series.  For modulus > 1
    the residue must be coprime to the modulus, which also means no prime
    dividing the modulus can ever appear in a filtered prime range.
    """

    modulus: int = 1
    residue: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}"
            )
        if self.modulus > 1 and math.gcd(self.modulus, self.residue) != 1:
            raise ValueError(
                f"residue {self.residue} not coprime to modulus {self.modulus}"
            )

    @property
    def is_full(self) -> bool:
        return self.modulus == 1

    @property
    def first_member(self) -> int:
        return self.residue if self.residue >= 1 else 1

    def count(self, n: int) -> int:
        """Number of members m with 1 <= m <= n."""
        if n < self.first_member:
            return 0
        return (n - self.first_member) // self.modulus + 1

    def members(self, n: int) -> np.ndarray:
        """All members up to n as an int64 array (desk-scale use only)."""
        return np.arange(self.first_member, n + 1, self.modulus, dtype=np.int64)


@dataclass(frozen=True)
class PrimeRange:
    """Ascending primes up to `limit`, optionally filtered to a progression."""

    limit: int
    primes: np.ndarray
    progression: Progression | None = None

    def __len__(self) -> int:
        return int(self.primes.size)


def primes_upto_monolithic(limit: int) -> np.ndarray:
    """Plain one-array Eratosthenes sieve.

    Used for base primes inside the segmented sieve and as an independent
    cross-check implementation in tests.  Fine up to ~10^7.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _validate_limit(limit: int) -> None:
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise ValueError(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")


# The pre-sieve: odd flag j stands for 2j + 1 and is cleared when 2j + 1 has
# a factor among these primes.  The pattern repeats every 3*5*7*11*13 = 15015
# flags, so each segment starts as a copy of it taken at the segment's phase.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)


def _presieve_pattern() -> np.ndarray:
    pattern = np.ones(_PRESIEVE_PERIOD, dtype=bool)
    for p in _PRESIEVE_PRIMES:
        pattern[(p - 1) // 2 :: p] = False
    pattern.flags.writeable = False
    return pattern


_PRESIEVE = _presieve_pattern()


def _fill_presieved(flags: np.ndarray, first: int) -> None:
    """Set flags to the pre-sieve pattern; flag 0 stands for the odd number `first`."""
    phase = (first // 2) % _PRESIEVE_PERIOD
    head = min(_PRESIEVE_PERIOD - phase, flags.size)
    flags[:head] = _PRESIEVE[phase : phase + head]
    for at in range(head, flags.size, _PRESIEVE_PERIOD):
        flags[at : at + _PRESIEVE_PERIOD] = _PRESIEVE[: flags.size - at]


def _sieve_segments(limit: int, progression: Progression | None = None) -> Iterator[np.ndarray]:
    """Yield the ascending primes of [2, limit] in the progression (all primes
    when None), one int64 array per segment of SIEVE_BLOCK integers.

    A segment holds one flag per odd number.  It starts as the pre-sieve
    pattern; the base primes above the pre-sieve strike their odd multiples
    from max(p^2, first multiple in the segment), each at an offset taken
    from one vector computation per segment.  The progression's odd members
    are every s-th flag, so its primes are read off that strided view and
    no prime value is ever reduced mod k.
    """
    k, r = (1, 0) if progression is None else (progression.modulus, progression.residue)
    # The odd members of the class are one residue mod `period`: k for even k
    # (whose coprime classes hold only odd numbers), 2k for odd k.
    period = k if k % 2 == 0 else 2 * k
    r_odd = r if r % 2 else r + k
    s = period // 2
    # A stride past the segment selects at most its first flag, so capping
    # the multiplier keeps it inside int64 for any modulus.
    step = 2 * min(s, SIEVE_BLOCK)

    base = primes_upto_monolithic(math.isqrt(limit))
    base = base[base > _PRESIEVE_PRIMES[-1]]
    squares = base * base
    base_list = base.tolist()
    buf = np.empty((SIEVE_BLOCK + 1) // 2, dtype=bool)

    lo = 2
    while lo <= limit:
        hi = min(lo + SIEVE_BLOCK, limit + 1)  # half-open [lo, hi)
        o0 = lo | 1
        flags = buf[: (hi - o0 + 1) // 2]
        _fill_presieved(flags, o0)
        if lo == 2:
            for p in _PRESIEVE_PRIMES:
                if p < hi:
                    flags[(p - o0) >> 1] = True
        m = int(np.searchsorted(squares, hi))  # the base primes with p^2 < hi
        gap = (-o0) % base[:m]  # from o0 to the next multiple of p
        offsets = np.where(gap & 1, gap + base[:m], gap) >> 1
        np.maximum(offsets, (squares[:m] - o0) >> 1, out=offsets)
        for p, at in zip(base_list, offsets.tolist()):
            flags[at::p] = False
        c = ((r_odd - o0) % period) >> 1  # first flag of the class
        primes = np.empty(0, dtype=np.int64)
        if c < flags.size:
            primes = np.flatnonzero(flags[c::s]) * step + (o0 + 2 * c)
        if lo == 2 and 2 % k == r:
            primes = np.concatenate((np.array([2], dtype=np.int64), primes))
        yield primes
        lo = hi


def _sieve_array(limit: int) -> np.ndarray:
    """All primes <= limit as one read-only array, filled segment by segment.

    The buffer is sized by the Rosser-Schoenfeld bound
    pi(x) < 1.25506 x / ln x, and the primes are copied in as they are
    sieved, so the array is never held twice; the pages past the last
    prime are never written and so never become resident.
    """
    buf = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    used = 0
    for seg in _sieve_segments(limit):
        buf[used : used + seg.size] = seg
        used += seg.size
    arr = buf[:used]
    arr.flags.writeable = False
    return arr


class _PrimeCache:
    """Memoizes the largest sieved prime array up to PRIME_CACHE_MAX."""

    def __init__(self) -> None:
        self._limit = 0
        self._primes = np.empty(0, dtype=np.int64)

    def primes_upto(self, limit: int) -> np.ndarray:
        if limit <= self._limit:
            cut = np.searchsorted(self._primes, limit, side="right")
            return self._primes[:cut]
        arr = _sieve_array(limit)
        if limit <= PRIME_CACHE_MAX:
            self._limit = limit
            self._primes = arr
        return arr


_cache = _PrimeCache()


def sieve_primes(limit: int) -> PrimeRange:
    """All primes <= limit as one ascending array.

    Materializes the full list; for limits past the cache budget prefer
    :func:`iter_prime_blocks`.
    """
    _validate_limit(limit)
    return PrimeRange(limit, _cache.primes_upto(limit))


def primes_in_progression(limit: int, progression: Progression) -> PrimeRange:
    """Primes p <= limit with p in the progression's residue class."""
    blocks = iter_prime_blocks(limit, progression)
    return PrimeRange(limit, np.concatenate([np.empty(0, dtype=np.int64), *blocks]), progression)


def iter_prime_blocks(limit: int, progression: Progression | None = None) -> Iterator[np.ndarray]:
    """Stream the primes <= limit in the progression as ascending, non-empty
    int64 blocks (all primes when the progression is None or full).

    The limit picks one of two layouts, with the same primes in the same
    order:

    - cached (limit <= PRIME_CACHE_MAX): the cache's array in chunks of
      PRIME_CHUNK primes, each cut to the class with one np.compress, so a
      block holds at most PRIME_CHUNK primes;
    - streamed (past it): one block per sieve segment of SIEVE_BLOCK
      integers, read off the class's strided view of the segment's flags;
      memory stays one segment, and no prime is reduced mod k.
    """
    _validate_limit(limit)
    if progression is not None and progression.is_full:
        progression = None
    if limit <= PRIME_CACHE_MAX:
        arr = _cache.primes_upto(limit)
        blocks = (arr[i : i + PRIME_CHUNK] for i in range(0, arr.size, PRIME_CHUNK))
        if progression is not None:
            k, r = progression.modulus, progression.residue
            blocks = (np.compress(b % k == r, b) for b in blocks)
    else:
        blocks = _sieve_segments(limit, progression)
    for blk in blocks:
        if blk.size:
            yield blk


# ---------------------------------------------------------------------------
# Factorization


def factorize(m: int) -> list[tuple[int, int]]:
    """Canonical factorization of m >= 1 into ascending (prime, exponent) pairs."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}; argument must be >= 1")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(k: int) -> int:
    """Euler's totient: count of residues mod k coprime to k.  Rejects k < 1."""
    if k < 1:
        raise ValueError(f"euler_phi requires k >= 1, got {k}")
    result = k
    for p, _ in factorize(k):
        result -= result // p
    return result
