"""The independent-variable model for an additive function on a progression.

Each prime contributes a two-valued variable X_p that equals f(p) with
probability 1/p and 0 otherwise; the model sum is S = sum of independent
X_p over the chosen prime set.  Cumulants add across independent terms,
so exact central moments of S come from a per-prime moment-to-cumulant
recursion followed by the cumulant-to-central-moment recursion, both
generic up to order 10.  Alongside the exact values we carry the
first-order approximation sum f(p)^u / p and its gap budget
sum |f(p)|^u / p^2.

The per-prime recursion is streamed block by block: the prime set comes
from the sieve's block iterator, each block's rows are reduced to one
partial per order, and the partials are combined exactly with math.fsum
(as in prime_sums).  Memory is bounded by one block, so the exact
moments, the Lindeberg ratio and the mean predictions also run past the
prime cache.  Only `sample` holds the whole prime set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import prime_sums
from .arith_fn import FunctionPair, PrimeFunction, eval_at_prime, iter_progression_values
from .config import MEMBER_BLOCK, MODEL_BLOCK, U_MAX_CAP, U_MAX_DEFAULT
from .moments import CoMoments, MomentSummary
from .sieve import Progression, iter_prime_blocks

MODES = ("restricted", "density")


@dataclass(frozen=True)
class BernoulliTerm:
    """One model term: value f(p) with probability 1/p, else 0."""

    p: int
    value: float

    @property
    def success_prob(self) -> float:
        return 1.0 / self.p

    def raw_moment(self, j: int) -> float:
        return self.value**j / self.p


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


@dataclass(frozen=True)
class PairComparison:
    summary_star: MomentSummary
    summary: MomentSummary
    mean_diff: float
    mu_diff: dict[int, float]
    predictions_star: dict[str, float]
    predictions: dict[str, float]
    override_contribution: float | None  # class-H pairs with explicit overrides


def _mode_blocks(progression: Progression, n: int, mode: str) -> Iterator[np.ndarray]:
    """Prime set behind a model, in ascending blocks of at most MODEL_BLOCK
    primes: the residue class itself, or all p not dividing the modulus (the
    uniform-density reading)."""
    if mode == "restricted":
        blocks = iter_prime_blocks(n, progression)
    elif mode == "density":
        k = progression.modulus
        blocks = (block[k % block != 0] for block in iter_prime_blocks(n))
    else:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return (b[i : i + MODEL_BLOCK] for b in blocks for i in range(0, b.size, MODEL_BLOCK))


def _active_blocks(
    fn: PrimeFunction, progression: Progression, n: int, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p as float64, f(p)) per block, restricted to the primes with f(p) != 0."""
    for block in _mode_blocks(progression, n, mode):
        fv = fn.values_at(block)
        active = fv != 0.0
        if np.any(active):
            yield block[active].astype(np.float64), fv[active]


def mode_primes(progression: Progression, n: int, mode: str) -> np.ndarray:
    """The whole prime set of a model as one array (only `sample` needs it)."""
    blocks = list(_mode_blocks(progression, n, mode))
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


def _raw_to_cumulants(raw: np.ndarray) -> np.ndarray:
    """Per-term cumulants from raw moments, vectorized across terms.

    raw[j] is the array of j-th raw moments (raw[0] = 1); the standard
    recursion kappa_n = m_n - sum C(n-1, j-1) kappa_j m_{n-j} applies.
    """
    u_max = raw.shape[0] - 1
    kappa = np.zeros_like(raw)
    for order in range(1, u_max + 1):
        acc = raw[order].copy()
        for j in range(1, order):
            acc -= math.comb(order - 1, j - 1) * kappa[j] * raw[order - j]
        kappa[order] = acc
    return kappa


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

    One pass over the prime blocks: each block's per-prime raw moments go
    through the moment-to-cumulant recursion, and every order keeps one
    partial per block for kappa, first_order and gap_bound.
    """
    if not 1 <= u_max <= U_MAX_CAP:
        raise ValueError(f"u_max must be in [1, {U_MAX_CAP}]")
    orders = range(1, u_max + 1)
    kappa_parts: dict[int, list[float]] = {j: [] for j in orders}
    first_parts: dict[int, list[float]] = {j: [] for j in orders}
    gap_parts: dict[int, list[float]] = {j: [] for j in orders}
    count = 0
    for p, f in _active_blocks(fn, progression, n, mode):
        count += p.size
        raw = np.empty((u_max + 1, p.size))
        raw[0] = 1.0
        inv_p = 1.0 / p
        power = np.ones_like(f)
        for j in orders:
            power = power * f
            raw[j] = power * inv_p
            first_parts[j].append(float(np.sum(raw[j])))
            gap_parts[j].append(float(np.sum(np.abs(power) * inv_p * inv_p)))
        kappa_terms = _raw_to_cumulants(raw)
        for j in orders:
            kappa_parts[j].append(float(np.sum(kappa_terms[j])))

    kappa = {j: math.fsum(kappa_parts[j]) for j in orders}
    first = {j: math.fsum(first_parts[j]) for j in orders}
    gap = {j: math.fsum(gap_parts[j]) for j in orders}
    central = _cumulants_to_central([0.0] + [kappa[j] for j in orders])
    mu = {j: central[j] for j in orders}
    return ModelMoments(n, progression, mode, kappa, mu, first, gap, count)


def central_moment_first_order(
    fn: PrimeFunction, progression: Progression, n: int, u: int
) -> float:
    """First-order stand-in for the u-th central moment: the exact sum of f(p)^u / p."""
    if u < 2:
        raise ValueError(f"central moment order must be >= 2, got {u}")
    return prime_sums.prime_power_sum(fn, u, n, progression).value


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


def sample(
    fn: PrimeFunction,
    progression: Progression,
    n: int,
    trials: int,
    seed: int,
    mode: str = "restricted",
) -> SampleSet:
    """Monte Carlo realizations of the model sum.

    Work is scattered per prime: the number of successful trials is drawn
    from Binomial(trials, 1/p) and f(p) is added to that many distinct
    trial slots, giving expected work O(trials * lnln n) instead of
    O(trials * pi(n)).  All draws come in a fixed order from one stream
    seeded by `seed`, so a seed reproduces its sample exactly.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    primes = mode_primes(progression, n, mode)
    fv = fn.values_at(primes)
    active = fv != 0.0
    successes = rng.binomial(trials, 1.0 / primes[active])
    values = np.zeros(trials)
    for f, c in zip(fv[active], successes.tolist()):
        if c:
            values[rng.choice(trials, c, replace=False)] += f
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
    Two passes over the prime blocks: D and max|f| first, then the tail.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    parts: list[float] = []
    f_max = 0.0
    for p, f in _active_blocks(fn, progression, n, mode):
        parts.append(float(np.sum(f * f / p)))
        f_max = max(f_max, float(np.max(np.abs(f))))
    if not parts:
        raise ValueError("degenerate: no primes contribute (variance is 0)")
    variance = math.fsum(parts)
    if variance <= 0.0:
        raise ValueError("degenerate: variance is 0")
    threshold = epsilon * math.sqrt(variance)
    tail = []
    for p, f in _active_blocks(fn, progression, n, mode):
        big = np.abs(f) > threshold
        tail.append(float(np.sum(f[big] * f[big] / p[big])))
    ratio = math.fsum(tail) / variance
    return LindebergReport(n, epsilon, variance, ratio, f_max / math.sqrt(variance))


def mean_predictions(
    fn: PrimeFunction, progression: Progression, n: int
) -> dict[str, float]:
    """First-moment prediction under both prime-set readings."""
    return {
        mode: math.fsum(float(np.sum(fn.values_at(block) / block))
                        for block in _mode_blocks(progression, n, mode))
        for mode in MODES
    }


def compare_pair(
    pair: FunctionPair,
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    block_members: int = MEMBER_BLOCK,
) -> PairComparison:
    """Empirical moments of both pair members over the progression.

    Both functions are evaluated in one factorization sweep.  For pairs
    whose compared member carries explicit prime-power overrides, the
    total override weight sum |delta f(p^a)| * density(p^a exactly
    divides a member) is reported; the density of an exact power p^a
    among members is (1/p^a)(1 - 1/p) for p not dividing the modulus.
    """
    fn_star, ext_star = pair.f_star
    fn, ext = pair.f
    count = progression.count(n)
    if count == 0:
        raise ValueError("no progression members <= n")
    acc_star = CoMoments(u_max)
    acc = CoMoments(u_max)
    for vals_star, vals in iter_progression_values(
        [(fn_star, ext_star), (fn, ext)], progression, n, block_members
    ):
        acc_star.add_batch(vals_star)
        acc.add_batch(vals)

    def summarize(a: CoMoments) -> MomentSummary:
        return MomentSummary(n, progression, a.n, a.mean, a.sigma, a.central_moments())

    s_star, s = summarize(acc_star), summarize(acc)
    mu_diff = {u: s.mu[u] - s_star.mu[u] for u in s.mu}

    override_total: float | None = None
    if pair.declared_class == "H" and (ext_star.overrides or ext.overrides):
        k = progression.modulus
        total = 0.0
        for fn_i, ext_i in (pair.f_star, pair.f):
            for (p, a), v in ext_i.overrides:
                if k % p == 0:
                    continue
                base = ext_i.base_value(a, eval_at_prime(fn_i, p))
                density = (1.0 / p**a) * (1.0 - 1.0 / p)
                total += abs(v - base) * density
        override_total = total

    return PairComparison(
        summary_star=s_star,
        summary=s,
        mean_diff=s.mean - s_star.mean,
        mu_diff=mu_diff,
        predictions_star=mean_predictions(fn_star, progression, n),
        predictions=mean_predictions(fn, progression, n),
        override_contribution=override_total,
    )
