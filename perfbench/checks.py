"""Output checks: every report is compared with an oracle after the timed window.

The oracles are written here, apart from the program, so that a change to
``apmoments`` cannot change what it is checked against:

- member counts from the closed form for an arithmetic progression;
- means of additive functions from a counting identity: the members
  divisible by a prime power q form one residue class mod qk, so
  sum f(m) = sum_p f(p) N_p (strongly additive) or
  sum_{p^a} f(p) N_{p^a} (completely additive), over this module's own
  sieve and its own formulas for f(p);
- Chebyshev coverage >= 1 - 1/b^2, which holds for any finite population;
- the ``ektest`` center equals the ``moments`` mean of the same dataset;
- increments of const:1 prime sums against Mertens' lnln main term;
- |mu2 - first_order2| <= gap_bound2 for the exact model moments;
- Monte Carlo |z| < 4 and a variance ratio within 10%;
- deterministic report fields pinned from the seed commit (``pins.json``)
  at a relative tolerance that survives a change in summation order.
  Monte Carlo draws are not pinned.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).with_name("pins.json")
PIN_RTOL = 1e-9
PIN_ATOL = 1e-12
# Report fields that are not pinned: the embedded config holds output
# paths and the machine's CPU count, and the Monte Carlo draws may change
# with a sanctioned change of the sampler's random-stream layout.
UNPINNED = {"config", "version", "seed", "sample_mean", "sample_variance", "z_score"}
MEAN_RTOL = 1e-12


class Oracle:
    """Independent reference values; memoizes its sieve."""

    def __init__(self) -> None:
        self._limit = 1
        self._primes = np.empty(0, dtype=np.int64)

    def primes(self, n: int) -> np.ndarray:
        if n > self._limit:
            flags = np.ones(n + 1, dtype=bool)
            flags[:2] = False
            flags[4::2] = False
            for p in range(3, math.isqrt(n) + 1, 2):
                if flags[p]:
                    flags[p * p :: 2 * p] = False
            self._primes = np.flatnonzero(flags).astype(np.int64)
            self._limit = n
        return self._primes[: np.searchsorted(self._primes, n, side="right")]

    def mean(self, spec: str, complete: bool, k: int, l: int, n: int) -> float:
        """Mean of the additive function over members <= n by counting multiples."""
        p = self.primes(n)
        p = p[k % p != 0]
        f = prime_values(spec, p)
        total = float(np.dot(f, _multiples(p, k, l, n)))
        q = p.copy()
        while complete:
            keep = q <= n // p
            if not keep.any():
                break
            p, f, q = p[keep], f[keep], q[keep] * p[keep]
            total += float(np.dot(f, _multiples(q, k, l, n)))
        return total / member_count(k, l, n)


def member_count(k: int, l: int, n: int) -> int:
    first = l if l >= 1 else 1
    return 0 if n < first else (n - first) // k + 1


def _multiples(q: np.ndarray, k: int, l: int, n: int) -> np.ndarray:
    """Members m = l (mod k), 1 <= m <= n, divisible by q (each q coprime to k).

    m = q*s with s = l * q^-1 (mod k), s >= 1.
    """
    inverse = np.array([pow(r, -1, k) if math.gcd(r, k) == 1 else 0 for r in range(k)],
                       dtype=np.int64)
    s0 = (l * inverse[q % k]) % k
    s0[s0 == 0] = k
    return np.where(q * s0 <= n, (n // q - s0) // k + 1, 0).astype(np.float64)


def prime_values(spec: str, p: np.ndarray) -> np.ndarray:
    """f(p) for the function specs the workloads use (0 below the start prime)."""
    x = p.astype(np.float64)
    if spec in ("omega", "bigomega"):
        return np.ones_like(x)
    head, _, rest = spec.partition(":")
    if head == "const":
        return np.full_like(x, float(rest))
    if head == "sqrtloglog":
        return np.where(p >= 3, np.sqrt(np.log(np.log(np.maximum(x, 3.0)))), 0.0)
    if head == "invloglog":
        return np.where(p >= 11, 1.0 / np.log(np.log(np.maximum(x, 11.0))), 0.0)
    if head == "tab":
        entries = dict(item.split("=") for item in rest.split(","))
        default = float(entries.pop("default"))
        table = {int(a): float(b) for a, b in entries.items()}
        out = np.where(p >= min(table), default, 0.0)
        for prime, value in table.items():
            out[p == prime] = value
        return out
    raise ValueError(f"no oracle for function spec {spec!r}")


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _class(argv: tuple[str, ...]) -> tuple[int, int, int]:
    k = int(_flag(argv, "--mod", "1"))
    l = int(_flag(argv, "--res", "0"))
    return k, l, int(float(_flag(argv, "--n")))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _pin_mismatch(pinned, actual, path: str = "") -> str | None:
    """First difference between a pinned value and a report value, or None."""
    if isinstance(pinned, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in pinned.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            bad = _pin_mismatch(value, actual[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(pinned, list):
        if not isinstance(actual, list) or len(actual) != len(pinned):
            return f"{path}: expected a list of {len(pinned)}"
        for i, (a, b) in enumerate(zip(pinned, actual)):
            bad = _pin_mismatch(a, b, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(pinned, float) or isinstance(actual, float):
        ok = isinstance(actual, (int, float)) and _close(pinned, actual, PIN_RTOL, PIN_ATOL)
    else:
        ok = pinned == actual
    return None if ok else f"{path}: pinned {pinned!r}, got {actual!r}"


def pinnable(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in UNPINNED}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def check_op(op, reports: dict, oracle: Oracle, pins: dict | None) -> list[str]:
    """Problems found in one op's report; an empty list means it passed.

    ``reports`` maps op id to parsed report for the whole pass.  With
    ``pins`` given, the op's deterministic fields must match its pin.
    """
    rep = reports.get(op.id)
    if rep is None:
        return ["no report"]
    problems = []
    for check in op.checks:
        name, params = check[0], check[1:]
        try:
            problems += _CHECKS[name](op.argv, rep, reports, oracle, *params)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{name}: malformed report ({exc!r})")
    if pins is not None:
        pin = pins.get(op.pin_key)
        if pin is None:
            problems.append("no pinned output for this argv")
        else:
            bad = _pin_mismatch(pin, pinnable(rep))
            if bad:
                problems.append(f"pin{bad}")
    return problems


def _check_count(argv, rep, reports, oracle):
    want = member_count(*_class(argv))
    counts = [rep[side]["count"] for side in ("f_star", "f")] if "f_star" in rep else [rep["count"]]
    return [f"count {c} != {want}" for c in counts if c != want]


def _check_mean(argv, rep, reports, oracle, spec, complete):
    want = oracle.mean(spec, complete, *_class(argv))
    got = rep["mean"]
    return [] if _close(got, want, MEAN_RTOL) else [f"mean {got!r} != counting oracle {want!r}"]


def _check_pair_means(argv, rep, reports, oracle, spec_star, spec, f_complete):
    out = []  # the reference function of a pair is strongly additive
    for side, name, complete in (("f_star", spec_star, False), ("f", spec, f_complete)):
        want = oracle.mean(name, complete, *_class(argv))
        got = rep[side]["mean"]
        if not _close(got, want, MEAN_RTOL):
            out.append(f"{side} mean {got!r} != counting oracle {want!r}")
    return out


def _check_chebyshev(argv, rep, reports, oracle):
    out = []
    for row in rep["coverage"]:
        bound = 1.0 - 1.0 / row["b"] ** 2
        if not row["coverage"] >= bound:
            out.append(f"coverage {row['coverage']} < 1 - 1/b^2 = {bound} at b = {row['b']}")
    return out


def _check_center_is_mean(argv, rep, reports, oracle, moments_id):
    mean = reports[moments_id]["mean"]
    ok = _close(rep["center"], mean, MEAN_RTOL)
    return [] if ok else [f"center {rep['center']!r} != moments mean {mean!r}"]


def _check_mertens(argv, rep, reports, oracle, high_id):
    k = int(_flag(argv, "--mod"))
    x_lo = int(float(_flag(argv, "--x")))
    x_hi = reports[high_id]["x"]
    phi_k = sum(1 for r in range(1, k + 1) if math.gcd(r, k) == 1)
    predicted = (math.log(math.log(x_hi)) - math.log(math.log(x_lo))) / phi_k
    gap = abs(reports[high_id]["exact_sum"] - rep["exact_sum"] - predicted)
    return [] if gap <= 0.01 else [f"increment misses lnln main term by {gap}"]


def _check_gap(argv, rep, reports, oracle):
    mu2, first2, gap2 = rep["mu"][1], rep["first_order"][1], rep["gap_bound"][1]
    ok = abs(mu2 - first2) <= gap2 * (1 + 1e-9) + 1e-15
    return [] if ok else [f"|mu2 - first_order2| = {abs(mu2 - first2)} > gap_bound2 = {gap2}"]


def _check_monte_carlo(argv, rep, reports, oracle):
    kappa1, kappa2 = rep["kappa"]
    trials = rep["trials"]
    z = (rep["sample_mean"] - kappa1) / math.sqrt(kappa2 / trials)
    ratio = rep["sample_variance"] / kappa2
    out = []
    if not abs(z) < 4.0:
        out.append(f"|z| = {abs(z)} >= 4")
    if not abs(ratio - 1.0) <= 0.10:
        out.append(f"variance ratio {ratio} outside 1 +- 0.10")
    return out


_CHECKS = {
    "count": _check_count,
    "mean": _check_mean,
    "pair_means": _check_pair_means,
    "chebyshev": _check_chebyshev,
    "center_is_mean": _check_center_is_mean,
    "mertens": _check_mertens,
    "gap": _check_gap,
    "monte_carlo": _check_monte_carlo,
}
