"""Span recorder for the traced run, and the per-layer metrics computed from it.

``install`` wraps, from outside the program, the public functions of each
layer module of ``apmoments`` (plus ``PrimeFunction.values_at`` and
``CoMoments.add_batch``) in every module namespace that refers to them.
Each call records a span: name, layer, start, end and parent, plus counts
taken at the same boundary (output size, input size, and a few
per-function counts).  A generator gets one span per step, so the time a
consumer spends between steps is not charged to the generator.  Spans are
kept in memory and written once, by :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "sieve", "arith_fn", "prime_sums", "moments", "model", "stats")
METHODS = (("arith_fn", "PrimeFunction", "values_at"), ("moments", "CoMoments", "add_batch"))

# Per-layer metrics and their units, in report order.
PER_LAYER_UNITS = {
    "cli.ops": "count", "cli.self_s": "s", "cli.report_bytes": "bytes",
    "sieve.calls": "count", "sieve.self_s": "s", "sieve.primes": "count",
    "sieve.primes_per_s": "1/s",
    "arith_fn.sweeps": "count", "arith_fn.sweeps_per_dataset": "ratio",
    "arith_fn.members": "count", "arith_fn.self_s": "s", "arith_fn.members_per_s": "1/s",
    "arith_fn.values_at_calls": "count", "arith_fn.values_at_s": "s",
    "prime_sums.calls": "count", "prime_sums.self_s": "s", "prime_sums.terms": "count",
    "prime_sums.quad_calls": "count", "prime_sums.quad_evals": "count", "prime_sums.quad_s": "s",
    "moments.self_s": "s", "moments.values": "count", "moments.values_per_s": "1/s",
    "moments.spill_bytes": "bytes",
    "stats.self_s": "s", "stats.ks_values": "count", "stats.ks_s": "s",
    "model.self_s": "s", "model.exact_s": "s", "model.sample_s": "s",
    "model.active_primes": "count", "model.trials": "count",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}

NAME_VALUES_AT = "arith_fn.values_at"

# name, layer, start, end, parent index (-1 at top level), counts
NAME, LAYER, START, END, PARENT, COUNTS = range(6)


class Recorder:
    """In-memory spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str, counts: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, counts])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _size(obj) -> int:
    """Elements produced: array size, first array of a list, or a result's count."""
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, list) and obj and isinstance(obj[0], np.ndarray):
        return int(obj[0].size)
    for attr in ("primes", "values"):  # PrimeRange, SampleSet
        value = getattr(obj, attr, None)
        if isinstance(value, np.ndarray):
            return int(value.size)
    count = getattr(obj, "term_count", None)  # PrimeSumResult, ModelMoments
    return count if isinstance(count, int) else 0


def _first_array_size(args) -> int:
    return next((int(a.size) for a in args if isinstance(a, np.ndarray)), 0)


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class _TracedSteps:
    """Iterator that records one span per step of a wrapped generator."""

    def __init__(self, rec: Recorder, gen, name: str, layer: str, first: dict) -> None:
        self._rec, self._gen, self._name, self._layer = rec, gen, name, layer
        self._first = first

    def __iter__(self):
        return self

    def __next__(self):
        counts, self._first = self._first or {}, None
        idx = self._rec.open(self._name, self._layer, counts)
        try:
            item = next(self._gen)
        finally:
            self._rec.close(idx)
        counts["out"] = _size(item)
        return item


def _wrap(rec: Recorder, fn, name: str, layer: str):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def steps(*args, **kwargs):
            first = {"call": 1}
            if name == "arith_fn.iter_progression_values":
                specs, progression, n = args[:3]
                first["dataset"] = repr((tuple(specs), progression, n))
            return _TracedSteps(rec, fn(*args, **kwargs), name, layer, first)

        return steps

    @functools.wraps(fn)
    def call(*args, **kwargs):
        counts = {"call": 1, "in": _first_array_size(args)}
        if name == "prime_sums.adaptive_simpson":
            integrand = args[0]

            def counted(t):
                counts["evals"] += 1
                return integrand(t)

            counts["evals"] = 0
            args = (counted, *args[1:])
        idx = rec.open(name, layer, counts)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        counts["out"] = _size(result)
        if name == "moments.empirical_moments":
            counts["spill_bytes"] = _file_size(kwargs.get("spill"))
        elif name == "cli.main":
            argv = list(args[0]) if args else []
            counts["report_bytes"] = _file_size(argv[argv.index("--out") + 1]) if "--out" in argv else 0
        return result

    return call


def install(rec: Recorder) -> None:
    """Route every call into the layer modules of ``apmoments`` through ``rec``."""
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"apmoments.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped[id(obj)] = (obj, _wrap(rec, obj, f"{layer}.{attr}", layer))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "apmoments" and not mod_name.startswith("apmoments."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"apmoments.{layer}"), cls_name)
        setattr(cls, method, _wrap(rec, getattr(cls, method), f"{layer}.{method}", layer))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced series (process and overhead excluded).

    A span's self time is its duration minus the durations of its child
    spans; a layer's self time is the sum over its spans.  A call "enters"
    a layer when its caller's span belongs to another layer.
    """
    dur = [s[END] - s[START] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= dur[i]

    def layer_of(i: int) -> str | None:
        return spans[i][LAYER] if i >= 0 else None

    def named(name: str):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(idx, key=None) -> float:
        return sum(spans[i][COUNTS].get(key, 0) if key else dur[i] for i in idx)

    def entries(layer: str) -> list[int]:
        return [i for i, s in enumerate(spans)
                if s[LAYER] == layer and s[COUNTS].get("call") and layer_of(s[PARENT]) != layer]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_time[i] for i, s in enumerate(spans) if s[LAYER] == layer)

    mains = named("cli.main")
    m["cli.ops"] = len(mains)
    m["cli.report_bytes"] = total(mains, "report_bytes")

    sieve_out = [i for i, s in enumerate(spans) if s[LAYER] == "sieve" and layer_of(s[PARENT]) != "sieve"]
    m["sieve.calls"] = len(entries("sieve"))
    m["sieve.primes"] = total(sieve_out, "out")
    m["sieve.primes_per_s"] = rate(m["sieve.primes"], m["sieve.self_s"])

    sweep = named("arith_fn.iter_progression_values")
    sweeps = [i for i in sweep if spans[i][COUNTS].get("call")]
    datasets = {spans[i][COUNTS]["dataset"] for i in sweeps}
    values_at = named(NAME_VALUES_AT)
    m["arith_fn.sweeps"] = len(sweeps)
    m["arith_fn.sweeps_per_dataset"] = rate(len(sweeps), len(datasets))
    m["arith_fn.members"] = total(sweep, "out")
    m["arith_fn.members_per_s"] = rate(m["arith_fn.members"], total(sweep))
    m["arith_fn.values_at_calls"] = len(values_at)
    m["arith_fn.values_at_s"] = total(  # outermost calls only: scaled specs recurse
        i for i in values_at if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != NAME_VALUES_AT)

    quad = named("prime_sums.adaptive_simpson")
    m["prime_sums.calls"] = len(entries("prime_sums"))
    m["prime_sums.terms"] = total([i for i in sieve_out if layer_of(spans[i][PARENT]) == "prime_sums"], "out")
    m["prime_sums.quad_calls"] = len(quad)
    m["prime_sums.quad_evals"] = total(quad, "evals")
    m["prime_sums.quad_s"] = total(quad)

    batches = named("moments.add_batch")
    m["moments.values"] = total(batches, "in")
    m["moments.values_per_s"] = rate(m["moments.values"], total(batches))
    m["moments.spill_bytes"] = total(named("moments.empirical_moments"), "spill_bytes")

    ks = named("stats.ks_distance")
    m["stats.ks_values"] = total(ks, "in")
    m["stats.ks_s"] = total(ks)

    exact = named("model.exact_moments")
    samples = named("model.sample")
    m["model.exact_s"] = total(exact)
    m["model.sample_s"] = total(samples)
    m["model.active_primes"] = total(exact, "out")
    m["model.trials"] = total(samples, "out")
    return m
