"""Reference evaluations that only the tests use.

eval_additive evaluates one member from its factorization, and
eval_by_increments does the same by adding the prime-power increments one
at a time, primes ascending, as the member sweep adds them, so that the
sweep's floats can be held to it bit for bit.  two_pass_central_moments
takes moments in two plain passes; these are the slow, direct forms the
sweep and the streaming moments are checked against.
central_moment_first_order is the model's first-order stand-in for a
central moment, one exact prime sum.  brute_force_central_moments
enumerates every outcome of a small model sum of BernoulliTerms, against
which the model's cumulant recursion is checked, and poisson_binomial_pmf
is the exact law of a count of independent successes, against which the
Monte Carlo sampler's histogram is checked.  distinct_slots_full_sort is
the sampler's slot redraw with a full sort on every round, and
distinct_slots_merge the same redraw merging only the redrawn keys back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from apmoments.arith_fn import Extension, PrimeFunction, eval_at_prime
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression


def eval_additive(
    fn: PrimeFunction, ext: Extension, factorization: Iterable[tuple[int, int]]
) -> float:
    """Sum of prime-power values over a factorization (0 for the empty one)."""
    return sum(ext.power_value(p, a, eval_at_prime(fn, p)) for p, a in factorization)


def eval_by_increments(
    fn: PrimeFunction, ext: Extension, factorization: Iterable[tuple[int, int]]
) -> float:
    """Sum from 0.0 of f(p^a) - f(p^(a-1)) for a = 1..e over the factorization
    (primes ascending), one float addition per increment."""
    value = 0.0
    for p, e in factorization:
        fp = eval_at_prime(fn, p)
        for a in range(1, e + 1):
            value += ext.increment(p, a, fp)
    return value


def two_pass_central_moments(values: np.ndarray, u_max: int) -> dict[int, float]:
    """Naive oracle: mean first, then averaged deviation powers."""
    mean = float(np.mean(values))
    d = values - mean
    return {u: float(np.mean(d**u)) for u in range(2, u_max + 1)}


def central_moment_first_order(
    fn: PrimeFunction, progression: Progression, n: int, u: int
) -> float:
    """First-order stand-in for the u-th central moment: the exact sum of f(p)^u / p."""
    if u < 2:
        raise ValueError(f"central moment order must be >= 2, got {u}")
    return prime_power_sum(fn, u, n, progression).value


@dataclass(frozen=True)
class BernoulliTerm:
    """One model term: value f(p) with probability 1/p, else 0."""

    p: int
    value: float

    @property
    def success_prob(self) -> float:
        return 1.0 / self.p


def brute_force_central_moments(
    terms: Sequence[BernoulliTerm], u_max: int
) -> dict[int, float]:
    """Enumerate all 2^m outcomes of the model sum (oracle, m <= ~20)."""
    values = np.zeros(1)
    probs = np.ones(1)
    for t in terms:
        values = np.concatenate([values, values + t.value])
        probs = np.concatenate([probs * (1.0 - t.success_prob), probs * t.success_prob])
    mean = float(np.dot(probs, values))
    d = values - mean
    out = {1: 0.0}
    for u in range(2, u_max + 1):
        out[u] = float(np.dot(probs, d**u))
    return out


def poisson_binomial_pmf(probs: Iterable[float]) -> np.ndarray:
    """Exact PMF of the number of successes of independent Bernoulli(q)
    terms, one convolution with [1 - q, q] per term."""
    pmf = np.ones(1)
    for q in probs:
        pmf = np.convolve(pmf, [1.0 - q, q])
    return pmf


def distinct_slots_full_sort(
    owner: np.ndarray, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """The sampler's distinct slots (see ``model._distinct_slots``), with the
    whole key array sorted again after every redraw round."""
    base = owner * trials
    key = base + rng.integers(trials, size=owner.size)
    while True:
        key.sort()
        repeat = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not repeat.size:
            return key - base
        key[repeat] = base[repeat] + rng.integers(trials, size=repeat.size)


def distinct_slots_merge(owner: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    """The sampler's distinct slots with the keys kept sorted: each round's
    repeats are deleted and their redrawn keys, sorted, merged back."""
    key = rng.integers(trials, size=owner.size)
    key += owner * trials
    key.sort()
    while True:
        repeat = np.flatnonzero(key[1:] == key[:-1]) + 1
        if not repeat.size:
            return key - owner * trials
        redrawn = np.sort(owner[repeat] * trials + rng.integers(trials, size=repeat.size))
        key = np.delete(key, repeat)
        key = np.insert(key, np.searchsorted(key, redrawn), redrawn)
