"""Reference evaluations that only the tests use.

eval_additive evaluates one member from its factorization, and
eval_by_increments does the same by adding the prime-power increments one
at a time, primes ascending, as the member sweep adds them, so that the
sweep's floats can be held to it bit for bit.  two_pass_central_moments
takes moments in two plain passes; these are the slow, direct forms the
sweep and the streaming moments are checked against.  mean_via_counts
is the exact mean of a strongly additive f on a class from the number of
members each prime divides.  central_moment_first_order is the model's
first-order stand-in for a central moment, one exact prime sum.  brute_force_central_moments
enumerates every outcome of a small model sum of BernoulliTerms, against
which the model's cumulant recursion is checked, and poisson_binomial_pmf
is the exact law of a count of independent successes, against which the
Monte Carlo sampler's histogram is checked.  distinct_slots_full_sort is
the sampler's slot redraw with a full sort on every round, and
distinct_slots_merge the same redraw merging only the redrawn keys back.
squarefree_in_class counts the squarefree members of a class by Moebius
inversion, the diagonal (omega = Omega) of the counted joint law, and
omega_power_sums gives the first two power sums of its omega marginal by
counting the members each prime and each pair of primes divides.

The helpers at the end serve the tests only, each on the route the
program runs: every prime of a class as one array (sieve_primes), a
spec's values over the members as one array (collect_values), f at one
prime (eval_at_prime), a spec's moment summary (empirical_moments) and a
spill file of given values (write_spill).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from apmoments.arith_fn import Extension, PrimeFunction, iter_progression_values
from apmoments.config import U_MAX_DEFAULT
from apmoments.moments import MomentSummary, collect_datasets, spill_file, summarize
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression, iter_prime_blocks

# Moduli past any int64 prime and past int64 itself.
HUGE_MODULI = [5_000_000_000, 9 * 10**19 + 1]
# The most divisors p or p q omega_power_sums takes at once.
_PAIR_PIECE = 1 << 16


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


def mean_via_counts(
    fn: PrimeFunction, ext: Extension, progression: Progression, n: int
) -> float:
    """Exact progression mean of a strongly additive f from prime counts.

    For each prime p not dividing the modulus, the members divisible by p
    form a single residue class mod p*k (solve m = residue mod k, m = 0
    mod p), so the number of such members has a closed form and the mean
    is sum f(p) * N_p / count.  Primes dividing the modulus divide no
    member at all.  The sweep mean's oracle (acceptance criterion 5).
    """
    if ext.mode != "strong" or ext.overrides:
        raise ValueError("mean_via_counts requires a strongly additive extension")
    count = progression.count(n)
    if count == 0:
        raise ValueError(
            f"no progression members <= {n} (first member is {progression.first_member})"
        )
    k, l = progression.modulus, progression.residue
    primes = sieve_primes(n)
    # p divides the members p*t with t = l/p mod k (k in place of 0), t + k,
    # ... up to n // p.  Only the residues the primes take are inverted,
    # with Python ints, so k may pass int64.  A first t past n counts
    # nothing, so it is capped at n + 1, also for a p dividing k (no t at
    # all); a k past n leaves at most one t, so n + 1 steps in for it.
    residues, where = np.unique(primes % k if k <= n else primes, return_inverse=True)
    first = [min(l * pow(r, -1, k) % k or k, n + 1) if math.gcd(r, k) == 1 else n + 1
             for r in residues.tolist()]
    top = n // primes
    counts = np.maximum((top - np.array(first, dtype=np.int64)[where]) // min(k, n + 1) + 1, 0)

    fvals = fn.values_at(primes)
    return float(np.dot(fvals, counts.astype(np.float64))) / count


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


def squarefree_in_class(n: int, k: int, r: int) -> int:
    """#{m <= n squarefree : m = r mod k}, as the sum over d <= sqrt(n),
    gcd(d, k) = 1, of mu(d) #{m <= n / d^2 : m = r / d^2 mod k}: O(sqrt(n))
    steps, with mu from a linear sieve.  (k, r) = (1, 0) is every m."""
    root = math.isqrt(n)
    mu = [1] * (root + 1)
    composite = [False] * (root + 1)
    primes: list[int] = []
    for i in range(2, root + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > root:
                break
            composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    total = 0
    for d in range(1, root + 1):
        if mu[d] and math.gcd(d, k) == 1:
            top = n // (d * d)
            first = r * pow(d * d, -1, k) % k or k  # the least m >= 1 of the class
            if first <= top:
                total += mu[d] * ((top - first) // k + 1)
    return total


def omega_power_sums(n: int, k: int, r: int) -> tuple[int, int]:
    """(sum of omega(m), sum of omega(m)^2) over the members m <= n of the
    class r mod k, by the counting identities sum omega = sum_p N_p and
    sum omega^2 = sum omega + 2 sum_{p<q} N_pq, N_d the members d divides,
    over the primes p <= n from the sieve.  Each pair's count is that of a
    class mod k below n / pq.  The primes, and the q of each p, come in
    pieces of at most _PAIR_PIECE, so the memory past the one array of
    primes stays a few MiB at any n.
    (k, r) = (1, 0) is every m."""
    primes = sieve_primes(n)
    primes = primes[k % primes != 0]  # no member is divisible by a prime of k
    inverse = np.array([pow(a, -1, k) if math.gcd(a, k) == 1 else 0 for a in range(k)])

    def members_divisible(d: np.ndarray) -> int:
        """sum over d of #{m <= n : m = r mod k, d | m}, d prime to k."""
        first = r * inverse[d % k] % k  # m = d t with t = r / d mod k
        first[first == 0] = k  # the least t >= 1 of its class
        return int(np.sum((n // d - first) // k + 1))  # 0 where n // d < first

    total = sum(members_divisible(primes[lo : lo + _PAIR_PIECE])
                for lo in range(0, primes.size, _PAIR_PIECE))
    pairs = 0
    for i, p in enumerate(primes[: np.searchsorted(primes, math.isqrt(n), "right")].tolist()):
        stop = int(np.searchsorted(primes, n // p, side="right"))
        for lo in range(i + 1, stop, _PAIR_PIECE):
            pairs += members_divisible(p * primes[lo : min(lo + _PAIR_PIECE, stop)])
    return total, total + 2 * pairs


def sieve_primes(limit: int, progression: Progression | None = None) -> np.ndarray:
    """All primes <= limit in the progression as one ascending int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *iter_prime_blocks(limit, progression)])


def collect_values(
    fn: PrimeFunction, ext: Extension, progression: Progression, n: int, rows=None
) -> np.ndarray:
    """f over all members up to n as one float64 array, from the member sweep."""
    values, at = np.empty(progression.count(n)), 0
    for (block,) in iter_progression_values([(fn, ext)], progression, n, rows):
        values[at : at + block.size] = block
        at += block.size
    return values


def eval_at_prime(fn: PrimeFunction, p: int) -> float:
    """f(p) for a single prime; 0 below the start prime."""
    return float(fn.values_at(np.array([p], dtype=np.int64))[0])


def empirical_moments(
    fn: PrimeFunction, ext: Extension, progression: Progression, n: int,
    u_max: int = U_MAX_DEFAULT, spill=None,
) -> MomentSummary:
    """The moment summary of f over the members up to n, as `moments` takes it."""
    (dataset,) = collect_datasets([(fn, ext)], progression, n, u_max, spill, keep=False)
    return summarize(dataset.moments, progression, n)


def write_spill(path, values: np.ndarray, label: dict) -> None:
    """values as a spill file, with its sidecar naming them (label)."""
    with spill_file(path, label) as fh:
        values.astype("<f8", copy=False).tofile(fh)
