"""Empirical moments of additive functions over progression members.

A dataset is one pair (x, counts), counted or filled by one member sweep.
A spec that is one constant c != 0 on every prime, with no overrides
(c omega or c Omega), takes its table of values and counts from the
class's joint law of omega and Omega (:func:`counted_tables`, from
:func:`counting.omega_law`) when counting pays at (n, k) and there is no
spill file, with no sweep.  Otherwise a spec on a lattice (see
:func:`arith_fn.lattice_steps`) gives the table of distinct values k*c
and their counts, folded block by block from the sweep's lattice
indices k, so no per-member array exists.  Any other spec
gives per-member values and counts=None: one float64 array, or with a
spill file that file itself (:class:`SpillFile`), read back by block.
With `--spill` the sweep writes each block to the file as it comes (k*c
for a lattice spec), and the table or the moments are taken from the
same blocks; only `ektest --spill` reads a spill file back into a
dataset (:func:`spill_dataset`), and gets the sweep's dataset.  Beside
each spill file a JSON sidecar (its path + ".json") names the dataset
(:func:`spill_label`), and a file is read back only for that dataset.  Moments
and Chebyshev coverage read both kinds through :func:`iter_blocks`:
a table whole, per-member values in the sweep's blocks.  Moments feed a
mergeable central-moment state, exact in real arithmetic, so chunked
evaluation matches a two-pass computation up to rounding.  The mean also
has an exact closed-form cross-check for strongly additive functions,
from counting the multiples of each prime in the progression.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from . import arith_fn, counting, sieve
from .arith_fn import Extension, PrimeFunction
from .config import CHEBYSHEV_B_DEFAULT, U_MAX_CAP, U_MAX_DEFAULT
from .sieve import Progression

class CoMoments:
    """Running state for central moments up to order u_max.

    Tracks n, the mean, and the centered power sums M_j = sum (x - mean)^j
    for j = 2..u_max.  Batches are absorbed by computing their exact local
    statistics and merging, which keeps the update one-pass over the data
    while staying associative.  A batch with counts weighs each value by
    its count (a distinct-value table); without, every value counts once.
    A batch's deviations and their powers are taken in pieces of
    :func:`arith_fn.piece_length` values, and each order's piece sums are
    added with ``np.sum``: for a whole default block (eight pieces of 2^16)
    that is the tree numpy's pairwise sum takes over the block, so the sums
    are those of one pass.
    """

    def __init__(self, u_max: int = U_MAX_DEFAULT):
        if not 2 <= u_max <= U_MAX_CAP:
            raise ValueError(f"u_max must be in [2, {U_MAX_CAP}], got {u_max}")
        self.u_max = u_max
        self.n = 0
        self.mean = 0.0
        self.m = np.zeros(u_max + 1)  # m[j] = M_j; m[0], m[1] unused

    def add_batch(self, values: np.ndarray, counts: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        w = None if counts is None else np.asarray(counts, dtype=np.float64)
        bn = values.size if w is None else int(np.sum(counts))
        bmean = float(values.mean()) if w is None else float((w * values).sum()) / bn
        piece = arith_fn.piece_length()
        parts = np.zeros((self.u_max + 1, -(-values.size // piece)))
        for i, at in enumerate(range(0, values.size, piece)):
            d = values[at : at + piece] - bmean
            for j in range(2, self.u_max + 1):  # no power past the last order
                power = d * d if j == 2 else np.multiply(power, d, out=power)
                parts[j, i] = power.sum() if w is None else (w[at : at + piece] * power).sum()
        bm = np.array([np.sum(row) for row in parts])
        self._merge_raw(bn, bmean, bm)

    def _merge_raw(self, bn: int, bmean: float, bm: np.ndarray) -> None:
        if bn == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m = bn, bmean, bm
            return
        an, amean, am = self.n, self.mean, self.m
        n = an + bn
        delta = bmean - amean
        sa = -delta * bn / n  # shift applied to side A deviations
        sb = delta * an / n
        out = np.zeros(self.u_max + 1)
        for p in range(2, self.u_max + 1):
            total = 0.0
            for j in range(0, p + 1):
                ma = an if p - j == 0 else (0.0 if p - j == 1 else am[p - j])
                mb = bn if p - j == 0 else (0.0 if p - j == 1 else bm[p - j])
                total += math.comb(p, j) * (ma * sa**j + mb * sb**j)
            out[p] = total
        self.n = n
        self.mean = amean + delta * bn / n
        self.m = out

    def central_moments(self) -> dict[int, float]:
        if self.n == 0:
            raise ValueError("no data")
        return {u: float(self.m[u] / self.n) for u in range(2, self.u_max + 1)}

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.m[2] / self.n, 0.0)) if self.n else 0.0


@dataclass(frozen=True)
class MomentSummary:
    n: int
    progression: Progression
    count: int
    mean: float
    sigma: float
    mu: dict[int, float]  # central moments for u = 2..u_max


@dataclass(frozen=True)
class ChebyshevReport:
    b_values: tuple[float, ...]
    coverage: tuple[float, ...]
    bounds: tuple[float, ...]
    degenerate: bool = False


def moment_summary(
    values: np.ndarray | SpillFile,
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    counts: np.ndarray | None = None,
) -> MomentSummary:
    """Mean, deviation, and central moments of one dataset (values, counts),
    fed to the running state piece by piece (:func:`iter_blocks`)."""
    acc = CoMoments(u_max)
    for block, weights in iter_blocks(values, counts):
        acc.add_batch(block, weights)
    return summarize(acc, progression, n)


def summarize(acc: CoMoments, progression: Progression, n: int) -> MomentSummary:
    """The summary of a running state that holds a whole dataset."""
    if acc.n == 0:
        raise ValueError(
            f"no progression members <= {n} (first member is {progression.first_member})"
        )
    return MomentSummary(n, progression, acc.n, acc.mean, acc.sigma, acc.central_moments())


def iter_blocks(
    values: np.ndarray | SpillFile, counts: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """A dataset as (values, counts) pieces: a table whole, per-member
    values (counts None) in slices of the member sweep's block length
    (``arith_fn.MEMBER_BLOCK``), so they fall on the sweep's own blocks."""
    if counts is not None:
        yield values, counts
        return
    size = arith_fn.MEMBER_BLOCK
    for lo in range(0, values.size, size):
        yield values[lo : lo + size], None


class SpillFile:
    """A spill file of `count` float64 values, read back by slice.

    Each slice is one ``np.fromfile`` at its offset, so no whole-file array
    exists.  A file of another length than 8 * count bytes is rejected
    before any read, and a slice holding a NaN or an infinity when it is
    read; either error names the file.
    """

    def __init__(self, path: str | Path, count: int):
        self.path = os.fspath(path)
        nbytes = os.stat(self.path).st_size
        if nbytes != 8 * count:
            raise ValueError(
                f"spill file {self.path} holds {nbytes} bytes, expected 8 x {count} values"
            )
        self.size = count

    def __getitem__(self, part: slice) -> np.ndarray:
        lo, hi, _ = part.indices(self.size)
        block = np.fromfile(self.path, dtype="<f8", count=max(hi - lo, 0), offset=8 * lo)
        if not np.isfinite(block).all():
            raise ValueError(f"spill file {self.path} holds a value that is not finite")
        return block


def spill_label(fn: PrimeFunction, ext: Extension, progression: Progression, n: int) -> dict:
    """What a spill file of f over the members up to n holds, as its sidecar
    records it: the spec and rule as their reprs, the class, n and the count."""
    return {"dataset": "members", "spec": repr(fn), "ext": repr(ext),
            "k": progression.modulus, "r": progression.residue, "n": n,
            "count": progression.count(n)}


def _sidecar(path: str | Path) -> str:
    return os.fspath(path) + ".json"


@contextmanager
def spill_file(path: str | Path, label: dict) -> Iterator[BinaryIO]:
    """A spill file written as :func:`atomic_file` writes it, then its sidecar
    naming the dataset (label).  The old sidecar is removed just before the
    new file replaces the old one, so a file never sits beside another
    dataset's sidecar; a failed block leaves both old files as they were."""
    with atomic_file(path, unlink_first=True) as fh:
        yield fh
        with suppress(FileNotFoundError):
            os.unlink(_sidecar(path))
    with atomic_file(_sidecar(path)) as fh:
        fh.write(json.dumps(label).encode())


def spill_dataset(
    path: str | Path, label: dict, step: float | None
) -> tuple[np.ndarray | SpillFile, np.ndarray | None]:
    """The spill file of the dataset `label` (see :func:`spill_label`) as a
    dataset: folded block by block into its lattice table (v at
    k = round(v / step)) when step is set, else the file itself.

    A file whose sidecar is missing or names another dataset is rejected,
    naming the file and the first field that differs.  This spec's sweep
    writes exactly k * step, and a float sum of its increments sits a few
    ulps off; a value further off than 1e-9 * step is from another spec,
    and is rejected naming the file too."""
    try:
        with open(_sidecar(path), "rb") as fh:
            found = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"spill file {path} has no sidecar {_sidecar(path)} naming its dataset") from None
    except ValueError:
        raise ValueError(f"spill file {path} has a sidecar that is not JSON") from None
    if found != label:
        found = found if isinstance(found, dict) else {}
        key = next(key for key in {**label, **found} if found.get(key) != label.get(key))
        raise ValueError(
            f"spill file {path} holds {key} {found.get(key)!r}, not {label.get(key)!r}")
    values = SpillFile(path, label["count"])
    if step is None:
        return values, None
    table = arith_fn.LatticeCounts(step)
    for block, _ in iter_blocks(values):
        k = np.rint(block / step)
        if not np.allclose(k * step, block, rtol=0.0, atol=1e-9 * step):
            raise ValueError(f"spill file {values.path} holds a value off the lattice of step {step}")
        table.add_batch(k.astype(np.int64))
    return table.table()


def counted_tables(
    specs: Sequence[tuple[PrimeFunction, Extension]], progression: Progression, n: int
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Each spec's value/count table over the members up to n, counted from
    the class's joint law of omega and Omega (:func:`counting.omega_law`),
    or None when the dataset is to be swept.

    Counting serves when every spec is one constant c != 0 on every prime
    (omega, bigomega, half_omega, `const:c`, scaled constants) with no
    overrides, and :func:`counting.pays` holds at (n, k).  Such an f is
    c omega under the strong rule and c Omega under the complete one, on
    the lattice of step |c|; each table is that marginal at lattice index
    sign(c) j, packed as :class:`arith_fn.LatticeCounts` packs the sweep's,
    so the arrays are the sweep's.
    """
    constants = [fn.constant_above(1) for fn, _ in specs]
    if (not all(constants) or any(ext.overrides for _, ext in specs)
            or not counting.pays(n, progression.modulus)):
        return None
    law = counting.omega_law(n, progression.modulus, progression.residue)
    tables = []
    for c, (_, ext) in zip(constants, specs):
        marginal = law.sum(axis=1 if ext.mode == "strong" else 0)
        table = arith_fn.LatticeCounts(abs(c))
        table.lo, table.counts = (0, marginal) if c > 0 else (1 - marginal.size, marginal[::-1])
        tables.append(table.table())
    return tables


def collect_dataset(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n: int,
    spill: str | Path | None = None,
    rows: list[arith_fn.Row] | None = None,
    acc: CoMoments | None = None,
) -> tuple[np.ndarray | SpillFile, np.ndarray | None]:
    """f over the members up to n as one dataset (x, counts), counted
    (:func:`counted_tables`) or from one sweep.

    Without `spill`, a spec that counting serves gets its table with no
    sweep.  Otherwise a lattice spec folds each sweep block (lattice
    indices) into its value/count table; any other spec fills one float64
    array (counts None), or with `spill` set is the spill file itself.
    `spill` gets every block as the sweep yields it (one :func:`spill_file`;
    index k as k * step), and `acc` absorbs the dataset as
    :func:`moment_summary` would, a spill's blocks as they are written (no
    read of the file).  `rows` is the spec's increment table when the
    caller has built it.
    """
    specs = [(fn, ext)]
    counted = None if spill is not None else counted_tables(specs, progression, n)
    if counted is not None:
        (dataset,) = counted
    else:
        if rows is None:
            rows = arith_fn.increment_table(specs, progression, n)
        steps = arith_fn.lattice_steps(specs, rows, n)
        (step,) = steps
        if step is None and spill is None:
            dataset = arith_fn.collect_values(fn, ext, progression, n, rows), None
        else:
            table = None if step is None else arith_fn.LatticeCounts(step)
            label = spill_label(fn, ext, progression, n)
            with spill_file(spill, label) if spill is not None else nullcontext() as fh:
                for (block,) in arith_fn.iter_progression_values(specs, progression, n, rows, steps):
                    if fh is not None:
                        (block if table is None else block * step).astype("<f8", copy=False).tofile(fh)
                    if table is not None:
                        table.add_batch(block)
                    elif acc is not None:
                        acc.add_batch(block)
            if table is None:
                return SpillFile(spill, progression.count(n)), None
            dataset = table.table()
    if acc is not None:
        for block, weights in iter_blocks(*dataset):
            acc.add_batch(block, weights)
    return dataset


def empirical_moments(
    fn: PrimeFunction,
    ext: Extension,
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    spill: str | Path | None = None,
) -> MomentSummary:
    """Mean, deviation, and central moments of f over members up to n, from
    one dataset (see :func:`collect_dataset`), whose sweep also writes
    `spill` if set.
    Kept for `scripts/model_vs_empirical.py`; the benchmark's tracer hooks it."""
    acc = CoMoments(u_max)
    collect_dataset(fn, ext, progression, n, spill, acc=acc)
    return summarize(acc, progression, n)


@contextmanager
def atomic_file(path: str | Path, *, unlink_first: bool = False) -> Iterator[BinaryIO]:
    """A binary file that replaces `path` only when the block completes: it is
    written as a temporary sibling and renamed, so no partial file survives
    an error.  Every output file (reports, spills) is written this way, and
    an error about the sibling is reported against `path`.

    Spills set `unlink_first`: the previous file is unlinked just before the
    rename, because on ext4 a rename over an existing file first flushes the
    new one (auto_da_alloc), which stalled each rewrite of an 80 MB spill by
    up to a second.  A failed block still leaves the previous file as it was.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".apmoments-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        if unlink_first:
            with suppress(FileNotFoundError):
                os.unlink(path)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_spill(path: str | Path, values: np.ndarray, label: dict) -> None:
    """values as a spill file, with its sidecar naming them (label)."""
    with spill_file(path, label) as fh:
        values.astype("<f8", copy=False).tofile(fh)


def mean_via_counts(
    fn: PrimeFunction, ext: Extension, progression: Progression, n: int
) -> float:
    """Exact progression mean of a strongly additive f from prime counts.

    For each prime p not dividing the modulus, the members divisible by p
    form a single residue class mod p*k (solve m = residue mod k, m = 0
    mod p), so the number of such members has a closed form and the mean
    is sum f(p) * N_p / count.  Primes dividing the modulus divide no
    member at all.  Kept as the sweep mean's oracle (acceptance criterion 5)
    and as the seed of computing moments by counting instead of sweeping.
    """
    if not ext.is_strongly_additive:
        raise ValueError("mean_via_counts requires a strongly additive extension")
    count = progression.count(n)
    if count == 0:
        raise ValueError(
            f"no progression members <= {n} (first member is {progression.first_member})"
        )
    k, l = progression.modulus, progression.residue
    primes = sieve.sieve_primes(n)
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


def chebyshev_check(
    summary: MomentSummary,
    values: np.ndarray | SpillFile,
    b_values: Sequence[float] = CHEBYSHEV_B_DEFAULT,
    counts: np.ndarray | None = None,
) -> ChebyshevReport:
    """Empirical coverage P(|f - mean| <= b*sigma) next to the 1 - 1/b^2 bound.

    (values, counts) is the dataset `summary` was taken from, read in
    blocks and in pieces of :func:`arith_fn.piece_length` values.  The
    inequality holds exactly for any finite population; a zero deviation
    makes every coverage 1 and is flagged degenerate.
    """
    bs = tuple(float(b) for b in b_values)
    if summary.sigma == 0.0:
        return ChebyshevReport(bs, tuple(1.0 for _ in bs), _bounds(bs), degenerate=True)
    total = values.size if counts is None else int(counts.sum())
    if total != summary.count:
        raise ValueError(f"dataset has {total} values, summary counted {summary.count}")
    radii = [b * summary.sigma for b in bs]
    inside = [0] * len(radii)
    piece = arith_fn.piece_length()
    for block, weights in iter_blocks(values, counts):
        for lo in range(0, block.size, piece):
            dev = np.abs(block[lo : lo + piece] - summary.mean)
            w = None if weights is None else weights[lo : lo + piece]
            for i, r in enumerate(radii):
                inside[i] += int(np.count_nonzero(dev <= r) if w is None else w[dev <= r].sum())
    return ChebyshevReport(bs, tuple(float(c) / total for c in inside), _bounds(bs))


def _bounds(bs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(max(0.0, 1.0 - 1.0 / (b * b)) for b in bs)
