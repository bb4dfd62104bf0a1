"""Segmented prime sieve, progression filtering, and trial-division factorization.

All operations are deterministic and pure given their inputs.  Prime
arrays returned here are read-only numpy views; a module-level cache
memoizes the largest sieved range so repeated sums over the same limit
do not pay for sieving twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import PRIME_CACHE_MAX, PRIME_CHUNK, SIEVE_BLOCK, SIEVE_CEILING


class SegmentSizeError(ValueError):
    """Raised when a requested sieve segment size is outside the memory budget."""


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


def _validate_block(block_size: int) -> None:
    # Segments below 2^10 thrash on base-prime setup; above 2^26 a single
    # odd-flag buffer exceeds the intended working-set budget.
    if not (1 << 10) <= block_size <= (1 << 26):
        raise SegmentSizeError(
            f"segment size {block_size} outside supported range [2^10, 2^26]"
        )


def _sieve_segments(limit: int, block_size: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 prime arrays covering [2, limit] block by block."""
    base = primes_upto_monolithic(math.isqrt(limit))
    base_odd = [int(p) for p in base if p > 2]
    lo = 2
    while lo <= limit:
        hi = min(lo + block_size, limit + 1)  # half-open [lo, hi)
        o0 = lo | 1
        if o0 >= hi:
            if lo <= 2 < hi:
                yield np.array([2], dtype=np.int64)
            lo = hi
            continue
        flags = np.ones((hi - o0 + 1) // 2, dtype=bool)
        for p in base_odd:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= hi:
                continue
            flags[(start - o0) >> 1 :: p] = False
        odds = o0 + 2 * np.flatnonzero(flags).astype(np.int64)
        if lo <= 2 < hi:
            yield np.concatenate((np.array([2], dtype=np.int64), odds))
        else:
            yield odds
        lo = hi


def _sieve_array(limit: int, block_size: int) -> np.ndarray:
    """All primes <= limit as one read-only array, filled segment by segment.

    The buffer is sized by the Rosser-Schoenfeld bound
    pi(x) < 1.25506 x / ln x, and the primes are copied in as they are
    sieved, so the array is never held twice; the pages past the last
    prime are never written and so never become resident.
    """
    buf = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    used = 0
    for seg in _sieve_segments(limit, block_size):
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
        arr = _sieve_array(limit, SIEVE_BLOCK)
        if limit <= PRIME_CACHE_MAX:
            self._limit = limit
            self._primes = arr
        return arr


_cache = _PrimeCache()


def sieve_primes(limit: int, block_size: int | None = None) -> PrimeRange:
    """All primes <= limit as one ascending array.

    Materializes the full list; for limits past the cache budget prefer
    :func:`iter_prime_blocks`.
    """
    _validate_limit(limit)
    if block_size is not None:
        _validate_block(block_size)
        return PrimeRange(limit, _sieve_array(limit, block_size))
    return PrimeRange(limit, _cache.primes_upto(limit))


def primes_in_progression(
    limit: int, progression: Progression, block_size: int | None = None
) -> PrimeRange:
    """Primes p <= limit with p in the progression's residue class."""
    full = sieve_primes(limit, block_size)
    if progression.is_full:
        return PrimeRange(limit, full.primes, progression)
    mask = full.primes % progression.modulus == progression.residue
    return PrimeRange(limit, full.primes[mask], progression)


def iter_prime_blocks(
    limit: int,
    progression: Progression | None = None,
    block_size: int | None = None,
) -> Iterator[np.ndarray]:
    """Stream primes <= limit in ascending blocks, optionally filtered.

    Serves chunks from the cache when the limit fits the cache budget;
    otherwise sieves segment by segment so memory stays bounded.
    """
    _validate_limit(limit)
    bs = SIEVE_BLOCK if block_size is None else block_size
    _validate_block(bs)

    def _filtered(block: np.ndarray) -> np.ndarray:
        if progression is None or progression.is_full:
            return block
        return block[block % progression.modulus == progression.residue]

    if limit <= PRIME_CACHE_MAX and block_size is None:
        arr = _cache.primes_upto(limit)
        for i in range(0, arr.size, PRIME_CHUNK):
            blk = _filtered(arr[i : i + PRIME_CHUNK])
            if blk.size:
                yield blk
    else:
        for raw in _sieve_segments(limit, bs):
            blk = _filtered(raw)
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
