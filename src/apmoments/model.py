"""The independent-variable model for an additive function on a progression.

Each prime contributes a two-valued variable X_p that equals f(p) with
probability 1/p and 0 otherwise; the model sum is S = sum of independent
X_p over the chosen prime set.  Cumulants add across independent terms,
so exact central moments of S come from per-prime cumulants followed by
the cumulant-to-central-moment recursion, both generic up to order 10.
X_p is f(p) times a Bernoulli(1/p) variable, so its j-th cumulant is
f(p)^j c_j(1/p), and the moment-to-cumulant recursion runs once per block
on the Bernoulli cumulants c_j.  Alongside the exact values we carry the
first-order approximation sum f(p)^u / p and its gap budget
sum |f(p)|^u / p^2.

Every function here takes the prime set of its reading (restricted or
density, counting.mode_source) block by block from the sieve, in its
blocks of at most PRIME_CHUNK primes.  The exact moments and the
Lindeberg ratio reduce each block to partials (sieve.map_prime_blocks,
which may split a streamed pass across CPUs) and combine them exactly
with math.fsum (as in prime_sums), so the split moves no bit; the Monte
Carlo sampler keeps the serial block iterator, since its one RNG stream
runs in block order, and draws each block's successes in pieces of at
most PRIME_CHUNK.
Memory is bounded by one block, so the exact moments, the Lindeberg
ratio and the sampler also run past the prime cache.

The exact moments and the Lindeberg ratio take the counted route of every
prime pass (counting.counted_tail, shared with prime_sums.prime_power_sum):
where f is one constant c on the primes past y, the floor value of n at
or just above 10^6, and counting pays, only the primes up to y are
sieved.  The primes y < p <= n then enter through their count and their
power sums P_s = sum of p^(-s), s <= 3, by class: each prime's Bernoulli
cumulant c_j(1/p) is a polynomial in 1/p with integer coefficients, so
the primes past y add c^j (a_j1 P_1 + a_j2 P_2 + a_j3 P_3) to kappa_j.
Power sums serve only where 1/p <= 10^-6, so their terms do not cancel;
below y the per-prime recursion stays.  The Lindeberg ratio counts the
same primes through c^2 P_1; the sampler always sieves.

The model's mean prediction, sum f(p)/p over a reading's primes, is
prime_sums.prime_power_sum at u = 1 in that reading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import counting
from .arith_fn import PrimeFunction
from .config import PRIME_CHUNK, U_MAX_CAP, U_MAX_DEFAULT
from .sieve import Progression, iter_prime_blocks, map_prime_blocks

# Orders of the counted power sums: the s >= 4 terms of the cumulants are
# dropped (see exact_moments).
COUNTED_ORDERS = 3


@dataclass(frozen=True)
class ModelMoments:
    n: int
    progression: Progression
    mode: str
    kappa: dict[int, float]  # cumulants 1..u_max
    mu: dict[int, float]  # exact central moments 1..u_max (mu_1 = 0)
    first_order: dict[int, float]  # sum f(p)^u / p per order
    gap_bound: dict[int, float]  # sum |f(p)|^u / p^2 per order
    term_count: int


@dataclass(frozen=True)
class SampleSet:
    seed: int
    trials: int
    values: np.ndarray


@dataclass(frozen=True)
class LindebergReport:
    n: int
    epsilon: float
    variance: float  # D(n) = sum f(p)^2 / p over the prime set
    ratio: float  # (1/D) * sum over |f(p)| > eps*sqrt(D) of f(p)^2/p
    max_over_sqrt_d: float  # max |f(p)| / sqrt(D(n))


def _active(fn: PrimeFunction, block: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(p as float64, f(p)) for the block's primes with f(p) != 0, or None
    when it has none."""
    fv = fn.values_at(block)
    active = fv != 0.0
    return (block[active].astype(np.float64), fv[active]) if np.any(active) else None


def _active_blocks(
    fn: PrimeFunction, progression: Progression, n: int, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_active` of every block of the mode's primes <= n that has an
    active prime, one after the other in block order."""
    source, cut = counting.mode_source(progression, mode)
    for block in iter_prime_blocks(n, source):
        active = _active(fn, cut(block))
        if active is not None:
            yield active


def _map_active(fn: PrimeFunction, progression: Progression, n: int, mode: str, per_active) -> list:
    """per_active(p, f) of every block of the mode's primes <= n that has an
    active prime (:func:`_active`), in block order; the sieve may split the
    pass across CPUs (sieve.map_prime_blocks)."""
    source, cut = counting.mode_source(progression, mode)

    def per_block(block: np.ndarray):
        active = _active(fn, cut(block))
        return None if active is None else per_active(*active)

    return [r for r in map_prime_blocks(n, source, per_block) if r is not None]


def _bernoulli_cumulants(q, u_max: int) -> list:
    """Cumulants c_1..c_{u_max} of Bernoulli(q), per entry of the array q.

    Every raw moment of Bernoulli(q) is q, so the moment-to-cumulant
    recursion kappa_n = m_n - sum C(n-1, j-1) kappa_j m_{n-j} reads
    c_n = q (1 - sum_{j<n} C(n-1, j-1) c_j).  A term f(p) X has cumulants
    f(p)^j c_j(1/p).  The recursion uses only ring operations, so on the
    polynomial q (:class:`_IntegerPolynomial`) it gives each c_j's integer
    coefficients.
    """
    c = [q]
    for order in range(2, u_max + 1):
        acc = 1 - q  # the j = 1 term, C(n-1, 0) c_1 = q
        for j in range(2, order):
            acc -= math.comb(order - 1, j - 1) * c[j - 1]
        acc *= q
        c.append(acc)
    return c


class _IntegerPolynomial(tuple):
    """A polynomial in q with integer coefficients, lowest power first, and
    the ring operations of :func:`_bernoulli_cumulants`."""

    def __sub__(self, other: tuple) -> _IntegerPolynomial:
        return _IntegerPolynomial(a - b for a, b in itertools.zip_longest(self, other, fillvalue=0))

    def __rsub__(self, other: int) -> _IntegerPolynomial:
        return _IntegerPolynomial((other,)) - self

    def __rmul__(self, other: int) -> _IntegerPolynomial:
        return _IntegerPolynomial(other * a for a in self)

    def __mul__(self, other: tuple) -> _IntegerPolynomial:
        product = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                product[i + j] += a * b
        return _IntegerPolynomial(product)


# a_ji of c_j(q) = sum_i a_ji q^i, j = 1..U_MAX_CAP
_COEFFICIENTS = _bernoulli_cumulants(_IntegerPolynomial((0, 1)), U_MAX_CAP)


def _cumulants_to_central(kappa: Sequence[float]) -> list[float]:
    """Central moments from cumulants via the same recursion with kappa_1 = 0."""
    u_max = len(kappa) - 1
    shifted = list(kappa)
    shifted[1] = 0.0
    central = [1.0] + [0.0] * u_max
    for order in range(1, u_max + 1):
        acc = 0.0
        for j in range(1, order + 1):
            acc += math.comb(order - 1, j - 1) * shifted[j] * central[order - j]
        central[order] = acc
    return central


def exact_moments(
    fn: PrimeFunction,
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    mode: str = "restricted",
) -> ModelMoments:
    """Exact cumulants and central moments of the model sum up to u_max.

    One pass over the prime blocks: the Bernoulli cumulants c_j(1/p) come
    from one recursion per block, each prime's cumulants are f(p)^j c_j,
    and every order keeps one partial per block for kappa, first_order
    and gap_bound.

    On the counted route (counting.counted_tail) the pass stops at y,
    and the primes y < p <= n add c^j (a_j1 P_1 + a_j2 P_2 + a_j3 P_3) to
    kappa_j, c^j P_1 to first_order, |c|^j P_2 to gap_bound and their
    count to term_count; c_j(q) = sum_i a_ji q^i.  The terms with i >= 4
    are dropped: at most |c|^j |a_j4| sum_{p > 10^6} p^(-4), which for
    j <= 10 is |c|^j 204,630 x 2.4e-20, about |c|^j 5e-15.
    """
    if not 1 <= u_max <= U_MAX_CAP:
        raise ValueError(f"u_max must be in [1, {U_MAX_CAP}]")
    orders = range(1, u_max + 1)
    limit, c, count, tail = counting.counted_tail(fn, progression, n, mode, COUNTED_ORDERS)
    count = count if c else 0  # inactive primes are not terms
    scale = np.float64(c) ** np.arange(u_max + 1)  # inf past the float range, like f**j
    kappa_parts: dict[int, list[float]] = {
        j: [float(scale[j]) * math.fsum(a * p_s for a, p_s in zip(_COEFFICIENTS[j - 1][1:], tail))]
        for j in orders
    }
    first_parts: dict[int, list[float]] = {j: [float(scale[j]) * tail[0]] for j in orders}
    gap_parts: dict[int, list[float]] = {j: [abs(float(scale[j])) * tail[1]] for j in orders}

    def per_active(p: np.ndarray, f: np.ndarray) -> tuple[int, list[tuple[float, float, float]]]:
        """The block's size and its (first_order, gap_bound, kappa) partial per order."""
        inv_p = 1.0 / p
        cumulants = _bernoulli_cumulants(inv_p, u_max)
        power = np.ones_like(f)
        term = np.empty_like(f)
        partials = []
        for j in orders:
            power *= f
            first = float(np.sum(np.multiply(power, inv_p, out=term)))
            np.abs(power, out=term)
            term *= inv_p
            term *= inv_p
            gap = float(np.sum(term))
            partials.append((first, gap, float(np.sum(np.multiply(power, cumulants[j - 1], out=term)))))
        return p.size, partials

    for size, partials in _map_active(fn, progression, limit, mode, per_active):
        count += size
        for j, (first, gap, kappa_j) in zip(orders, partials):
            first_parts[j].append(first)
            gap_parts[j].append(gap)
            kappa_parts[j].append(kappa_j)

    kappa = {j: math.fsum(kappa_parts[j]) for j in orders}
    first = {j: math.fsum(first_parts[j]) for j in orders}
    gap = {j: math.fsum(gap_parts[j]) for j in orders}
    central = _cumulants_to_central([0.0] + [kappa[j] for j in orders])
    mu = {j: central[j] for j in orders}
    return ModelMoments(n, progression, mode, kappa, mu, first, gap, count)


def _distinct_slots(owner: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform trial slot per entry of the ascending `owner`, redrawn
    until no owner holds a slot twice; each owner's slots come ascending.

    Every round draws one new slot per repeat, the repeats' owners taken
    ascending.  The rule looks only at which slots are equal, never at
    their values, so each owner ends with a uniform set of distinct slots.
    Where the keys owner * trials + slot fill their range densely (a
    piece of a few owners, e.g. p = 2 alone), one boolean table of taken
    keys makes each round cost its repeats.  Elsewhere the keys stay
    sorted, and each round's redrawn keys are sorted and merged back.
    """
    key = rng.integers(trials, size=owner.size)
    key += owner * trials
    span = (int(owner[-1]) + 1) * trials
    if span <= 32 * owner.size:  # the table is at most 4x the keys
        taken = np.zeros(span, dtype=bool)
        taken[key] = True
        distinct = np.count_nonzero(taken.reshape(-1, trials), axis=1)
        repeat = np.repeat(np.arange(distinct.size), np.bincount(owner) - distinct)
        while repeat.size:
            key = np.sort(repeat * trials + rng.integers(trials, size=repeat.size))
            fresh = ~taken[key]
            fresh[1:] &= key[1:] != key[:-1]
            taken[key[fresh]] = True
            repeat = key[~fresh] // trials
        return np.flatnonzero(taken) - owner * trials
    key.sort()
    while True:
        repeat = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not repeat.size:
            return np.subtract(key, owner * trials, out=key)
        redrawn = np.sort(owner[repeat] * trials + rng.integers(trials, size=repeat.size))
        key = np.delete(key, repeat)
        key = np.insert(key, np.searchsorted(key, redrawn), redrawn)


def sample(
    fn: PrimeFunction,
    progression: Progression,
    n: int,
    trials: int,
    seed: int,
    mode: str = "restricted",
) -> SampleSet:
    """Monte Carlo realizations of the model sum.

    Work is scattered per prime: the number c of successful trials is
    drawn from Binomial(trials, 1/p) and f(p) is added to c distinct trial
    slots, giving expected work O(trials * lnln n) instead of
    O(trials * pi(n)).  The primes come in the sieve's blocks, as for
    exact_moments.  Per block one binomial call draws every prime's c;
    the successes are cut into pieces of at most PRIME_CHUNK (a prime
    with more is a piece of its own), and per piece one integers call
    draws the slots, of which those a prime holds twice are redrawn
    (_distinct_slots).  All draws come in this fixed order from one
    stream seeded by `seed`, so a seed reproduces its sample exactly.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    values = np.zeros(trials)
    for p, f in _active_blocks(fn, progression, n, mode):
        counts = rng.binomial(trials, 1.0 / p)
        hit = counts > 0
        f, counts = f[hit], counts[hit]
        ends = np.cumsum(counts)
        start = 0
        while start < counts.size:
            piece_end = ends[start] - counts[start] + PRIME_CHUNK
            stop = max(int(np.searchsorted(ends, piece_end, side="right")), start + 1)
            owner = np.repeat(np.arange(stop - start), counts[start:stop])
            np.add.at(values, _distinct_slots(owner, trials, rng), f[start:stop][owner])
            start = stop
    return SampleSet(seed, trials, values)


def lindeberg_check(
    fn: PrimeFunction,
    progression: Progression,
    n: int,
    epsilon: float,
    mode: str = "restricted",
) -> LindebergReport:
    """Tail-variance ratio behind the normal-limit condition.

    Returns (1/D) * sum of f(p)^2/p over primes with |f(p)| > eps*sqrt(D),
    where D = sum f(p)^2/p, plus the coarser diagnostic max|f|/sqrt(D).
    One pass over the prime blocks gives D, max|f| and each block's range
    of |f|; a second sums the tail only if a block straddles the threshold.
    On the counted route (counting.counted_tail) the passes stop at y,
    and the primes past it, where f = c, add c^2 P_1 to D, add it to the
    tail when |c| exceeds the threshold, and count |c| in max|f|.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    limit, c, _, (p_1,) = counting.counted_tail(fn, progression, n, mode)

    def per_active(p: np.ndarray, f: np.ndarray) -> tuple[float, float, float]:
        size = np.abs(f)
        return float(np.sum(f * f / p)), float(size.min()), float(size.max())

    blocks = _map_active(fn, progression, limit, mode, per_active)
    parts = [c * c * p_1, *(s for s, _, _ in blocks)]
    spans = [(lo, hi) for _, lo, hi in blocks]
    f_max = max([abs(c), *(hi for _, hi in spans)])
    if f_max == 0.0:
        raise ValueError("degenerate: no primes contribute (variance is 0)")
    variance = math.fsum(parts)
    if variance <= 0.0:
        raise ValueError("degenerate: variance is 0")
    threshold = epsilon * math.sqrt(variance)
    tail = [parts[0] if abs(c) > threshold else 0.0]
    if all(lo > threshold or hi <= threshold for lo, hi in spans):
        tail += [s if lo > threshold else 0.0 for s, (lo, _) in zip(parts[1:], spans)]
    else:

        def tail_of(p: np.ndarray, f: np.ndarray) -> float:
            big = np.abs(f) > threshold
            return float(np.sum(f[big] * f[big] / p[big]))

        tail += _map_active(fn, progression, limit, mode, tail_of)
    ratio = math.fsum(tail) / variance
    return LindebergReport(n, epsilon, variance, ratio, f_max / math.sqrt(variance))
