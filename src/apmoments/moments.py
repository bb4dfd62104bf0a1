"""Empirical moments of additive functions over progression members.

Every dataset that `moments`, `ektest` and `compare` read comes from one
route, :func:`collect_datasets`: per spec a :class:`Dataset` of its
values (x, counts), its lattice step and its moments, counted or from one
member sweep shared by all specs.  A spec that is one constant c != 0 on
every prime, with no overrides (c omega or c Omega), takes its table of
values and counts from the class's joint law of omega and Omega
(:func:`counting.omega_law`) when counting pays at (n, k) and there is no
spill file, with no sweep.  Otherwise a spec on a lattice (see
:func:`arith_fn.lattice_steps`) gives the table of distinct values k*c
and their counts, folded block by block from the sweep's lattice
indices k, so no per-member array exists.  Any other spec feeds its
moments block by block and gives per-member values and counts=None: one
float64 array when the caller keeps it, or with a spill file that file
itself (:class:`SpillFile`), read back by block.  With `--spill` the
sweep writes each block to the file as it comes (k*c for a lattice
spec); only `ektest --spill` reads a spill file back into a dataset
(:func:`spill_dataset`), and gets the sweep's dataset.  Beside each spill
file a JSON sidecar (its path + ".json") names the dataset
(:func:`spill_label`), and a file is read back only for that dataset.
Moments and Chebyshev coverage read both kinds in the same pieces
(:func:`iter_blocks`): a table whole, per-member values in the sweep's
blocks.  Moments feed a mergeable central-moment state, exact in real
arithmetic, so chunked evaluation matches a two-pass computation up to
rounding.  The sweep and the spill read-back cut their blocks into one
contiguous run per usable CPU (:func:`sieve.map_parts`, a forked child
per run after the first).  Each run returns its blocks' own statistics
(:meth:`CoMoments.batch`, :meth:`arith_fn.LatticeCounts.batch`), a few
hundred bytes a block, and this process merges them in block order, the
serial sequence of operations: moments are bit for bit those of one
process and lattice counts exact sums.  A kept array is an anonymous
shared mapping whose slices the runs fill, and each run writes its
blocks into the spill file with ``os.pwrite`` at their own offsets.
:func:`compare_pair` sets the summaries of a pair's two datasets, taken
in one call, side by side.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from . import arith_fn, counting
from .arith_fn import Extension, PrimeFunction
from .config import CHEBYSHEV_B_DEFAULT, U_MAX_CAP, U_MAX_DEFAULT
from .sieve import Progression, map_parts

class CoMoments:
    """Running state for central moments up to order u_max.

    Tracks n, the mean, and the centered power sums M_j = sum (x - mean)^j
    for j = 2..u_max.  Batches are absorbed by computing their exact local
    statistics (:meth:`batch`) and merging (:meth:`merge`), which keeps the
    update one-pass over the data while staying associative.  A batch with
    counts weighs each value by its count (a distinct-value table); without,
    every value counts once.
    A batch's deviations and their powers are taken in pieces of
    :func:`arith_fn.piece_length` values, and each order's piece sums are
    added with ``np.sum``: for a whole default block (eight pieces of 2^16)
    that is the tree numpy's pairwise sum takes over the block, so the sums
    are those of one pass.  The least and largest value seen (lo, hi) are
    kept from the same pieces, so the KS needs no pass of its own for them.
    """

    def __init__(self, u_max: int = U_MAX_DEFAULT):
        if not 2 <= u_max <= U_MAX_CAP:
            raise ValueError(f"u_max must be in [2, {U_MAX_CAP}], got {u_max}")
        self.u_max = u_max
        self.n = 0
        self.mean = 0.0
        self.m = np.zeros(u_max + 1)  # m[j] = M_j; m[0], m[1] unused
        self.lo, self.hi = math.inf, -math.inf  # the least and largest value seen

    def add_batch(self, values: np.ndarray, counts: np.ndarray | None = None) -> None:
        self.merge(self.batch(values, counts))

    def batch(self, values: np.ndarray, counts: np.ndarray | None = None) -> tuple:
        """(n, mean, M, lo, hi): one batch's own statistics, M[j] its
        centered power sum of order j, for :meth:`merge`."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return 0, 0.0, None, math.inf, -math.inf
        w = None if counts is None else np.asarray(counts, dtype=np.float64)
        bn = values.size if w is None else int(np.sum(counts))
        bmean = float(values.mean()) if w is None else float((w * values).sum()) / bn
        piece = arith_fn.piece_length()
        parts = np.zeros((self.u_max + 1, -(-values.size // piece)))
        lo, hi = math.inf, -math.inf
        for i, at in enumerate(range(0, values.size, piece)):
            part = values[at : at + piece]
            lo, hi = min(lo, float(part.min())), max(hi, float(part.max()))
            d = part - bmean
            for j in range(2, self.u_max + 1):  # no power past the last order
                power = d * d if j == 2 else np.multiply(power, d, out=power)
                parts[j, i] = power.sum() if w is None else (w[at : at + piece] * power).sum()
        return bn, bmean, np.array([np.sum(row) for row in parts]), lo, hi

    def merge(self, batch: tuple) -> None:
        """Fold a batch's statistics (:meth:`batch`) into the state: the
        pairwise update of Pebay (2008), so batches merged in their order
        give the state of adding them in that order."""
        bn, bmean, bm, lo, hi = batch
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
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
class Dataset:
    """One spec's values over the members up to n, and their moments.

    A lattice spec's dataset is its table of distinct values x = k * step
    and their counts; any other spec's is x, one float64 per member, or
    the spill file itself (:class:`SpillFile`), or None when the collector
    kept neither (counts and step None).
    """

    moments: CoMoments
    x: np.ndarray | SpillFile | None
    counts: np.ndarray | None
    step: float | None


@dataclass(frozen=True)
class ChebyshevReport:
    b_values: tuple[float, ...]
    coverage: tuple[float, ...]
    bounds: tuple[float, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class PairComparison:
    summary_star: MomentSummary
    summary: MomentSummary
    mean_diff: float
    mu_diff: dict[int, float]
    override_contribution: float | None  # pairs with explicit overrides


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
    path: str | Path, fn: PrimeFunction, ext: Extension, progression: Progression, n: int,
    u_max: int = U_MAX_DEFAULT,
) -> Dataset:
    """The spill file of f over the members up to n as that dataset, from
    one read of the file: folded block by block into its lattice table (v
    at k = round(v / step)) for a lattice spec (:func:`arith_fn.lattice_steps`),
    else the file itself, whose blocks feed the moments as they are read.

    A file whose sidecar is missing or names another dataset (see
    :func:`spill_label`) is rejected, naming the file and the first field
    that differs.  This spec's sweep writes exactly k * step, and a float
    sum of its increments sits a few ulps off; a value further off than
    1e-9 * step is from another spec, and is rejected naming the file too;
    the process of the split read (see the module docstring) that reads
    that block raises it."""
    label = spill_label(fn, ext, progression, n)
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
    specs = [(fn, ext)]
    (step,) = arith_fn.lattice_steps(specs, arith_fn.increment_table(specs, progression, n), n)
    values, acc = SpillFile(path, label["count"]), CoMoments(u_max)
    table = None if step is None else arith_fn.LatticeCounts(step)

    def run(starts: range) -> list:
        batches = []
        for lo in starts:
            block = values[lo : lo + arith_fn.MEMBER_BLOCK]
            if table is None:
                batches.append(acc.batch(block))
                continue
            k = np.rint(block / step)
            if not np.allclose(k * step, block, rtol=0.0, atol=1e-9 * step):
                raise ValueError(f"spill file {values.path} holds a value off the lattice of step {step}")
            batches.append(table.batch(k.astype(np.int64)))
        return batches

    for batch in map_parts(run, range(0, values.size, arith_fn.MEMBER_BLOCK)):
        (acc if table is None else table).merge(batch)
    return _dataset(acc, table, values)


def _shared_array(count: int) -> np.ndarray:
    """An array of count float64 in an anonymous shared mapping, so that the
    forked parts of a sweep (:func:`sieve.map_parts`) fill one array.  The
    mapping holds at least one value: mmap refuses a length of 0."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), dtype=np.float64)[:count]


def _pwrite(fd: int, values: np.ndarray, at: int) -> None:
    """values as little-endian float64 at value index `at` of the file fd,
    written from the array's own buffer."""
    view, offset = memoryview(values.astype("<f8", copy=False)).cast("B"), 8 * at
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _dataset(
    acc: CoMoments, table: arith_fn.LatticeCounts | None, values: np.ndarray | SpillFile | None
) -> Dataset:
    """A lattice table as a dataset, feeding its moments whole, else the
    per-member `values` whose blocks fed them (counts and step None)."""
    if table is None:
        return Dataset(acc, values, None, None)
    x, counts = table.table()
    acc.add_batch(x, counts)
    return Dataset(acc, x, counts, table.step)


def collect_datasets(
    specs: Sequence[tuple[PrimeFunction, Extension]],
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
    spill: str | Path | None = None,
    keep: bool = True,
) -> list[Dataset]:
    """Each spec's values over the members up to n as one :class:`Dataset`,
    counted or from one sweep for all specs.

    Counting serves, with no sweep, when there is no spill file, every spec
    is one constant c != 0 on every prime (omega, bigomega, half_omega,
    constant specs at any factor) with no overrides, and :func:`counting.pays`
    holds at (n, k).  Such an f is c omega under the strong rule and c Omega
    under the complete one, on the lattice of step |c|: its table is that
    marginal of the class's joint law (:func:`counting.omega_law`) at
    lattice index sign(c) j, packed as :class:`arith_fn.LatticeCounts`
    packs the sweep's, so the arrays are the sweep's.

    Otherwise one sweep evaluates every spec.  A lattice spec (see
    :func:`arith_fn.lattice_steps`) folds each block of lattice indices
    into its value/count table, so no per-member array exists; any other
    spec feeds its moments block by block and, when `keep`, fills one
    float64 array.  `spill` (one spec only) gets every block as the sweep
    yields it (one :func:`spill_file`; index k as k * step), and a spec
    off the lattice then is that file (:class:`SpillFile`), not an array.
    The sweep's blocks are split across the usable CPUs and merged in
    block order (see the module docstring).  A table feeds its moments
    whole, after the sweep.
    """
    accs = [CoMoments(u_max) for _ in specs]
    constants = [fn.constant_above(1) for fn, _ in specs]
    if (spill is None and all(constants) and not any(ext.overrides for _, ext in specs)
            and counting.pays(n, progression.modulus)):
        law = counting.omega_law(n, progression.modulus, progression.residue)
        tables = []
        for c, (_, ext) in zip(constants, specs):
            marginal = law.sum(axis=1 if ext.mode == "strong" else 0)
            table = arith_fn.LatticeCounts(abs(c))
            table.lo, table.counts = (0, marginal) if c > 0 else (1 - marginal.size, marginal[::-1])
            tables.append(table)
        values = [None] * len(specs)
    else:
        rows = arith_fn.increment_table(specs, progression, n)
        steps = arith_fn.lattice_steps(specs, rows, n)
        tables = [None if step is None else arith_fn.LatticeCounts(step) for step in steps]
        count = progression.count(n)
        values = [_shared_array(count) if keep and spill is None and table is None else None
                  for table in tables]
        out = nullcontext()
        if spill is not None:
            ((fn, ext),) = specs  # a spill file holds one dataset
            out = spill_file(spill, spill_label(fn, ext, progression, n))
        with out as fh:

            def run(starts: range) -> list:
                batches = []
                sweep = arith_fn.iter_progression_values(specs, progression, n, rows, steps, starts)
                for t_lo, blocks in zip(starts, sweep):
                    for table, array, block in zip(tables, values, blocks):
                        if fh is not None:
                            _pwrite(fh.fileno(), block if table is None else block * table.step, t_lo)
                        if array is not None:
                            array[t_lo : t_lo + block.size] = block
                    batches.append([(acc if table is None else table).batch(block)
                                    for acc, table, block in zip(accs, tables, blocks)])
                return batches

            for batches in map_parts(run, range(0, count, arith_fn.MEMBER_BLOCK)):
                for acc, table, batch in zip(accs, tables, batches):
                    (acc if table is None else table).merge(batch)
        if spill is not None:
            values = [SpillFile(spill, count)]
    return [_dataset(*parts) for parts in zip(accs, tables, values)]


def compare_pair(
    f_star: tuple[PrimeFunction, Extension],
    f: tuple[PrimeFunction, Extension],
    progression: Progression,
    n: int,
    u_max: int = U_MAX_DEFAULT,
) -> PairComparison:
    """Empirical moments of a reference spec f_star and a compared spec f.

    Both sides are one call of :func:`collect_datasets`, the route of
    `moments` and `ektest` (one joint law or one sweep for both, with no
    per-member array), so each side's summary is its own `moments` summary,
    bit for bit.  When a side carries explicit prime-power overrides, the
    total override weight sum |delta f(p^a)| * density(p^a exactly divides
    a member) is reported; the density of an exact power p^a among members
    is (1/p^a)(1 - 1/p) for p not dividing the modulus.
    """
    datasets = collect_datasets([f_star, f], progression, n, u_max, keep=False)
    s_star, s = (summarize(d.moments, progression, n) for d in datasets)
    override_total: float | None = None
    if f_star[1].overrides or f[1].overrides:
        override_total = 0.0
        for fn, ext in (f_star, f):
            for (p, a), v in ext.overrides:
                if progression.modulus % p == 0:
                    continue
                base = ext.base_value(a, float(fn.values_at([p])[0]))
                density = (1.0 / p**a) * (1.0 - 1.0 / p)
                override_total += abs(v - base) * density
    mu_diff = {u: s.mu[u] - s_star.mu[u] for u in s.mu}
    return PairComparison(s_star, s, s.mean - s_star.mean, mu_diff, override_total)


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
