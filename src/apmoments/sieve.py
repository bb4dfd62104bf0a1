"""Segmented prime sieve, progression filtering, primality and trial-division
factorization.

All operations are deterministic and pure given their inputs.  Prime
arrays are handed out as int64; a module-level cache memoizes the
largest sieved range, as uint32, so repeated sums over the same limit do
not pay for sieving twice.

The sieve is the segmented sieve of primes in progressions (Bays &
Hudson, BIT 17, 1977).  It keeps one flag per member of the odd class
r mod lcm(2, k), so a class is sieved without its neighbours, and k = 1
gives the odd numbers.  Each segment starts as a copy of the class's
small-prime pattern, with the members divisible by 3, 5, 7, 11 or 13
(those not dividing k) already struck (Pritchard's pre-sieve; period at
most 15015 flags).  Only the base primes from 17 up strike, one stride
each, at offsets computed as one vector per segment, so the streamed
path never reduces a prime mod k.  The cache holds every prime up to
its limit and cuts a class out of it with np.compress, one chunk at a
time, widening only the cut to int64.  Either way a block holds at most
PRIME_CHUNK primes, the one block length every consumer takes as it
comes.

A pass that reduces each block to a partial (map_prime_blocks) splits
the streamed segments into one contiguous run per usable CPU and sieves
each run but the first in a forked child, which sends its partials back
pickled over a pipe.  Every part yields the blocks the serial stream
yields there, so the partials, and any exact fold of them, do not
depend on the split.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterator

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


# The pre-sieve primes.  A class's pattern strikes the members divisible by
# those that do not divide k; its period, their product, divides 15015, so a
# pattern of 15015 member flags serves every class.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)


def _fill_pattern(out: np.ndarray, pattern: np.ndarray, phase: int) -> None:
    """Set out to the periodic pattern, out[0] taking pattern[phase] (a
    segment's flags here, a member sweep block's buffers in arith_fn)."""
    head = min(pattern.size - phase, out.size)
    out[:head] = pattern[phase : phase + head]
    for at in range(head, out.size, pattern.size):
        out[at : at + pattern.size] = pattern[: out.size - at]


def _class_members(limit: int, k: int, r: int) -> tuple[int, int, int]:
    """(P, v0, members) of the class sieve: flag j stands for the odd member
    v0 + P*j of the class r mod k, P = lcm(2, k), for 0 <= j < members."""
    period = k if k % 2 == 0 else 2 * k
    v0 = r if r % 2 else r + k
    return period, v0, (limit - v0) // period + 1 if v0 <= limit else 0


def _class_segments(limit: int, k: int, r: int, part: int = 0, parts: int = 1) -> Iterator[np.ndarray]:
    """Yield the ascending primes p <= limit with p % k == r, for k <= limit,
    as int64 arrays: [2] first when 2 is in the class, then one array per
    segment of SIEVE_BLOCK member flags.  With parts > 1 only the part-th
    of `parts` contiguous runs of segments is sieved, and only part 0
    yields [2], so the parts in order yield the arrays of the whole stream.

    Flag j stands for the odd member v0 + P*j of the class, P = lcm(2, k).
    A segment starts as the class's pre-sieve pattern.  Each base prime q
    from 17 up that does not divide k then strikes the members it divides,
    one stride of q flags from the first member >= q^2; the members q
    divides are those with j = -v0/P mod q, and the segment's offsets are
    one vector computation.  At k = 1 the flags are the odd numbers.
    """
    period, v0, members = _class_members(limit, k, r)
    if part == 0 and 2 % k == r:
        yield np.array([2], dtype=np.int64)
    segments = -(-members // SIEVE_BLOCK)

    odd = primes_upto_monolithic(max(_PRESIEVE_PRIMES[-1], math.isqrt(limit)))[1:]
    odd = odd[k % odd != 0]
    # the index of the first member each odd prime divides
    first = np.array([-v0 * pow(period, -1, q) % q for q in odd.tolist()], dtype=np.int64)
    pre = odd <= _PRESIEVE_PRIMES[-1]
    pattern = np.ones(_PRESIEVE_PERIOD, dtype=bool)
    # the flags the pattern gets wrong: the member 1, and the pre-sieve primes
    fixes = [(0, False)] if v0 == 1 else []
    for q, j in zip(odd[pre].tolist(), first[pre].tolist()):
        pattern[j::q] = False
        if q % period == v0:
            fixes.append(((q - v0) // period, True))
    base, first = odd[~pre], first[~pre]
    square = -((v0 - base * base) // period)  # index of the first member >= q^2, or below 0
    base_list = base.tolist()
    buf = np.empty(SIEVE_BLOCK, dtype=bool)

    for segment in range(part * segments // parts, (part + 1) * segments // parts):
        lo = segment * SIEVE_BLOCK
        flags = buf[: min(SIEVE_BLOCK, members - lo)]
        hi = lo + flags.size
        _fill_pattern(flags, pattern, lo % _PRESIEVE_PERIOD)
        for j, flag in fixes:
            if lo <= j < hi:
                flags[j - lo] = flag
        m = int(np.searchsorted(square, hi))  # the base primes with q^2 below member hi
        start = np.maximum(square[:m], lo)
        offsets = start + (first[:m] - start) % base[:m] - lo
        for q, at in zip(base_list, offsets.tolist()):
            flags[at::q] = False
        yield np.flatnonzero(flags) * period + (v0 + period * lo)


# The first twelve primes: as Miller-Rabin bases they decide every m < 2^64
# (Sorenson & Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Whether the integer m < 2^64 is prime: deterministic Miller-Rabin
    with the prime bases up to 37, so a 20-digit m costs about as much as
    a small one.  At m >= 2^64, where those bases decide nothing, it
    raises ValueError."""
    if m >= 1 << 64:
        raise ValueError(f"primality is decided only below 2^64, got {m}")
    if m < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _sieve_array(limit: int) -> np.ndarray:
    """All primes <= limit (< 2^32) as one read-only uint32 array, filled
    segment by segment.

    The buffer is sized by the Rosser-Schoenfeld bound
    pi(x) < 1.25506 x / ln x, and the primes are copied in as they are
    sieved, so the array is never held twice; the pages past the last
    prime are never written and so never become resident.

    The buffer is an anonymous mapping of its own, not a block of the C
    heap: glibc raises its mmap threshold to the size of a freed mapped
    block, and its trim threshold to twice that.  Freeing a heap buffer as
    the cache grows (355 KiB at 1e6, as it grows to 1e7) would let the
    heap keep up to twice that of later temporaries, and a process's peak
    would then move by that much with the order of its work.
    """
    size = int(1.25506 * limit / math.log(limit)) + 1
    buf = np.frombuffer(mmap.mmap(-1, 4 * size), dtype=np.uint32)
    used = 0
    for seg in _class_segments(limit, 1, 0):
        buf[used : used + seg.size] = seg
        used += seg.size
    arr = buf[:used]
    arr.flags.writeable = False
    return arr


class _PrimeCache:
    """Memoizes the largest sieved uint32 prime array up to PRIME_CACHE_MAX."""

    def __init__(self) -> None:
        self._limit = 0
        self._primes = np.empty(0, dtype=np.uint32)

    def primes_upto(self, limit: int) -> np.ndarray:
        """The cached primes <= limit (<= PRIME_CACHE_MAX), a uint32 view."""
        if limit > self._limit:
            self._limit, self._primes = limit, _sieve_array(limit)
        # a Python int here would convert the whole cache to int64
        cut = np.searchsorted(self._primes, np.uint32(limit), side="right")
        return self._primes[:cut]


_cache = _PrimeCache()


def iter_prime_blocks(limit: int, progression: Progression | None = None) -> Iterator[np.ndarray]:
    """Stream the primes <= limit in the progression as ascending int64
    blocks of 1 to PRIME_CHUNK primes (all primes when the progression is
    None or full).

    The limit picks one of two layouts, with the same primes in the same
    order:

    - cached (limit <= PRIME_CACHE_MAX): the cache's uint32 array in
      chunks of PRIME_CHUNK primes, each cut to the class with one
      np.compress (p - p // k * k == r: // by a scalar is a multiply and
      shift, % a divide per prime) and then widened to int64;
    - streamed (past it): each segment of the class sieve, cut into
      pieces of PRIME_CHUNK primes; memory stays one segment, and no
      prime is reduced mod k.

    A modulus past the limit leaves one member, the residue, so the class
    is that residue when it is prime.
    """
    _validate_limit(limit)
    k, r = _class(progression)
    if k > limit:
        if r <= limit and is_prime(r):
            yield np.array([r], dtype=np.int64)
        return
    yield from _blocks(limit, k, r)


def _class(progression: Progression | None) -> tuple[int, int]:
    return (1, 0) if progression is None else (progression.modulus, progression.residue)


def _blocks(limit: int, k: int, r: int, part: int = 0, parts: int = 1) -> Iterator[np.ndarray]:
    """iter_prime_blocks' blocks for k <= limit; with parts > 1 (streamed
    layout only), those of the part-th run of segments."""
    cached = limit <= PRIME_CACHE_MAX
    for arr in [_cache.primes_upto(limit)] if cached else _class_segments(limit, k, r, part, parts):
        for i in range(0, arr.size, PRIME_CHUNK):
            blk = arr[i : i + PRIME_CHUNK]
            if cached:
                blk = (np.compress(blk - blk // k * k == r, blk) if k > 1 else blk).astype(np.int64)
            if blk.size:
                yield blk


def map_prime_blocks(
    limit: int, progression: Progression | None, per_block: Callable[[np.ndarray], object]
) -> list:
    """[per_block(b) for b in iter_prime_blocks(limit, progression)], with
    the streamed layout split across the usable CPUs.

    The class sieve's segments are cut into one contiguous run per usable
    CPU, at most one run per segment.  Each run after the first goes to a
    forked child, which maps its blocks and sends the list, or the
    exception it raised, back pickled over a pipe.  This process maps the
    first run, then reads and reaps the children in order and re-raises a
    child's exception.  Every run yields the blocks the serial stream
    yields there, so the list is the serial list.  On any error the
    children still running are killed and reaped: none outlives the call.

    The cached layout, a modulus past the limit, one usable CPU and a
    platform without os.sched_getaffinity or os.fork map serially.  The
    results must pickle, and per_block's effects on other state stay in
    the process that ran it.
    """
    _validate_limit(limit)
    k, r = _class(progression)
    parts = 1
    if PRIME_CACHE_MAX < limit and k <= limit and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        segments = -(-_class_members(limit, k, r)[2] // SIEVE_BLOCK)
        parts = min(len(os.sched_getaffinity(0)), segments)
    if parts <= 1:
        return [per_block(b) for b in iter_prime_blocks(limit, progression)]

    def run(part: int) -> list:
        return [per_block(b) for b in _blocks(limit, k, r, part, parts)]

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for part in range(1, parts):
            children.append(_fork(run, part))
        out = run(0)
        while children:
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            children.pop(0)
            os.close(fd)
            _, status = os.waitpid(pid, 0)
            if not payload:
                raise RuntimeError(f"sieve part ended with wait status {status} and no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            out += value
        return out
    finally:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _fork(run: Callable[[int], list], part: int) -> tuple[int, int]:
    """Fork a child that writes (True, run(part)), or (False, the exception
    raised), pickled to a pipe, and leaves by os._exit, so no cleanup
    handler or buffered output of this process runs twice.  Returns the
    child's pid and the read end of the pipe."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, run(part)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised by the parent
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:  # an exception that does not pickle and back
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


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
