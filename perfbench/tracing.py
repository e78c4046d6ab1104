"""Outside-in span tracing of the persize modules.

``Tracer.install`` swaps every public function of the traced modules for a
recording wrapper, in its own module and wherever another module bound it
with ``from ... import`` (``utility.distribution``, ``cli.atomic_write``,
...), plus the CLI's stage dispatch table. Nothing in ``src/`` changes.

A span is ``[name, start, end, parent, counts, is_task]``, kept in memory.
Work run through ``util.parallel_map`` is recorded as one task span per key,
named after the function that called ``parallel_map`` (the worker closure is
that function's code) and parented to the ``parallel_map`` span; spans a
task opens on a pool thread hang under it. A span's self time is its
duration minus the union of its children's intervals; overlap between
concurrent children is reported apart, so that

    sum(self times) - overlap == sum(root span durations)

holds exactly. Work counts are computed at the wrapper from the sizes of a
layer's inputs and outputs, never counted inside the program.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "dataset", "scorer", "calibrate", "selection", "utility", "poibin",
           "multidomain", "util")


def _table_rows(table) -> int:
    return sum(len(table.get(u)[0]) for u in table.users())


def _sgd_steps(train, config) -> int:
    _, per_user = np.unique(train.pairs[:, 0], return_counts=True)
    trainable = int(per_user[per_user < len(train.items)].sum())
    return config.epochs * config.negatives_per_positive * trainable


def _cells(probs, M) -> int:
    n = int(np.size(probs))
    return n * (min(n, M) + 1)


def _bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _fit_status(result) -> dict:
    per_user, _ = result
    hist: dict = defaultdict(int)
    for params in per_user.values():
        hist[f"calibrate.fit_status.{params.fit_status}"] += 1
    return hist


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# layer -> f(result, args, kwargs) -> {metric: computed count}
COUNTERS = {
    "poibin.distribution": lambda r, a, k: {
        "poibin.distribution.cells": _cells(a[0], _arg(a, k, 1, "M"))},
    "poibin.distribution_batch": lambda r, a, k: {
        "poibin.distribution_batch.rows": len(a[0])},
    "scorer.import_scores": lambda r, a, k: {
        "scorer.import_scores.rows": _table_rows(r),
        "scorer.import_scores.bytes": os.path.getsize(a[0])},
    "scorer.train_bpr": lambda r, a, k: {
        "scorer.train_bpr.sgd_steps": _sgd_steps(a[0], _arg(a, k, 1, "config"))},
    "scorer.build_score_table": lambda r, a, k: {
        "scorer.build_score_table.rows": _table_rows(r)},
    "scorer.export_scores": lambda r, a, k: {
        "scorer.export_scores.rows": _table_rows(a[0])},
    "calibrate.fit_all_users": lambda r, a, k: _fit_status(r),
    "selection.evaluate": lambda r, a, k: {"selection.evaluate.users": r.n_users},
    "multidomain.allocate": lambda r, a, k: {
        "multidomain.allocate.dp_cells":
            len(a[0].curves) * (_arg(a, k, 1, "N") + 1) * (_arg(a, k, 2, "K") + 1)},
    "util.atomic_write": lambda r, a, k: {"util.atomic_write.bytes": _bytes(a[1])},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, None, False]
        self.spans.append(rec)  # list.append is atomic under the GIL
        stack.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack().pop()
            if count is not None:
                rec[4] = count(result, args, kwargs)
            return result

        return traced

    def _wrap_parallel_map(self, fn):
        local = self._local

        def traced(work, keys, threads: int = 1):
            rec = self._open("util.parallel_map")
            caller = rec[3][0] if rec[3] is not None else "util.parallel_map"

            def task(key):
                saved = getattr(local, "stack", None)
                trec = [caller, 0.0, 0.0, rec, None, True]
                self.spans.append(trec)
                local.stack = [trec]
                cpu0 = time.thread_time()
                trec[1] = time.perf_counter()
                try:
                    return work(key)
                finally:
                    trec[2] = time.perf_counter()
                    # wall minus on-CPU time: waiting for the GIL or the OS
                    waited = (trec[2] - trec[1]) - (time.thread_time() - cpu0)
                    trec[4] = {"util.parallel_map.wait_s": max(waited, 0.0)}
                    local.stack = saved

            rec[1] = time.perf_counter()
            try:
                return fn(task, keys, threads)
            finally:
                rec[2] = time.perf_counter()
                self._stack().pop()

        return traced

    def install(self) -> None:
        mods = {short: importlib.import_module(f"persize.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = (self._wrap_parallel_map(obj) if name == "util.parallel_map"
                           else self._wrap(name, obj))
                wrapped[id(obj)] = (obj, wrapper)
        namespaces = [vars(m) for m in mods.values()]
        namespaces += [vars(importlib.import_module("persize")), mods["cli"]._COMMANDS]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]


def _union(intervals, lo: float, hi: float) -> float:
    covered, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def summarize(spans: list) -> dict:
    """Per-layer self time, call counts and computed counts of a span list."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(float)
    overlap = 0.0
    roots = []
    for rec in spans:
        name, start, end, parent, rec_counts, is_task = rec
        kids = children.get(id(rec), ())
        covered = _union(kids, start, end)
        self_s[name] += (end - start) - covered
        overlap += sum(b - a for a, b in kids) - covered
        if not is_task:
            calls[name] += 1
        for key, value in (rec_counts or {}).items():
            counts[key] += value
        if parent is None:
            roots.append((name, end - start))
    return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts),
            "overlap_s": overlap, "roots": roots}
