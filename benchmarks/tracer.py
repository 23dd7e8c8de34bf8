"""Spans around fwlab's layers and its numpy/scipy kernels, from outside.

``Tracer.install`` wraps every public function of each fwlab module (one
layer per module) and the dense kernels on ``numpy.linalg`` and
``scipy.linalg``.  fwlab modules bind each other's functions with
``from .x import y``, so a wrapper is installed in every module namespace
that holds the original.  Spans stay in memory with their parent; each
thread keeps its own span stack, and a span opened on a thread with an
empty stack (a sweep pool worker) takes the innermost open span of the
thread that runs the operation as its parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("models", "algebra", "matfunc", "eriksen", "exact_case",
          "stepwise", "harness", "fileio", "cli")
KERNELS = ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
           (scipy.linalg, "schur"), (scipy.linalg, "expm"))
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "schur")

# Span record fields.
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory spans and counts, keyed by operation id."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()      # (op, key) -> value
        self.op = None               # id of the operation in progress
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op):
        """Mark the calling thread as the one running operation ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def count(self, key, value=1):
        with self._lock:
            self.counts[(self.op, key)] += value

    def wrap(self, name, fn, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = self._op_stack
                parent = op_stack[-1] if op_stack and op_stack is not stack else None
            record = [name, time.perf_counter(), None, parent, self.op, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap fwlab's public functions and the kernels; ``uninstall`` undoes it."""
        package = sys.modules["fwlab"]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"fwlab.{layer}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, OBSERVERS.get(name))
        namespaces = [package] + [sys.modules[f"fwlab.{layer}"] for layer in LAYERS]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(namespace, attr, wrapped[value])
        for module, attr in KERNELS:
            self._patch(module, attr, self.wrap(f"kernel.{attr}", getattr(module, attr)))

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []


def _observe_comparison(tracer, args, report):
    for row in report.methods:
        if row.error_type is not None:
            tracer.count("harness.error_records")
            tracer.count(f"harness.error_records.{row.error_type}")


def _observe_stepwise(tracer, args, result):
    _, trace = result
    tracer.count("stepwise.steps", len(trace.iterations))
    tracer.count("stepwise.converged", int(trace.converged))


def _observe_write(tracer, args, result):
    tracer.count("fileio.bytes_written", len(args[1].encode()))


OBSERVERS = {
    "harness.run_comparison": _observe_comparison,
    "stepwise.stepwise_fw": _observe_stepwise,
    "fileio.write_text": _observe_write,
}


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def span_totals(spans, ops):
    """Per span name over operations ``ops``: calls, seconds, self seconds, errors.

    Self time is a span's duration minus the part of it that its child
    spans cover, on any thread.
    """
    ops = set(ops)
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for index, record in enumerate(spans):
        if record[OP] not in ops:
            continue
        start, end = record[START], record[END]
        entry = totals[record[NAME]]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - _covered(children.get(index, ()), start, end)
        entry[3] += record[ERROR] is not None
    return totals


def child_seconds(spans, ops, parent_name, child_name):
    """Seconds spent in ``child_name`` spans directly under ``parent_name`` spans."""
    ops = set(ops)
    return sum(r[END] - r[START] for r in spans
               if r[OP] in ops and r[NAME] == child_name and r[PARENT] is not None
               and spans[r[PARENT]][NAME] == parent_name)


def call_counts(tracer, ops):
    """Deterministic counts of ``ops``: calls per span name and observed counts."""
    ops = set(ops)
    counts = Counter(r[NAME] for r in tracer.spans if r[OP] in ops)
    for (op, key), value in tracer.counts.items():
        if op in ops:
            counts[key] += value
    return dict(sorted(counts.items()))


def per_layer(tracer, ops):
    """Per-operation layer metrics over ``ops``, as {name: (value, unit)}."""
    n = len(ops)
    totals = span_totals(tracer.spans, ops)
    counts = call_counts(tracer, ops)

    def total(name, field):
        return totals[name][field] if name in totals else 0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}

    def calls_and_seconds(name):
        metrics[f"{name}.calls"] = (total(name, 0) / n, "count")
        metrics[f"{name}.s"] = (total(name, 1) / n, "s")

    for _, kernel in KERNELS:
        calls_and_seconds(f"kernel.{kernel}")
    metrics["kernel.decompositions"] = (
        sum(total(f"kernel.{k}", 0) for k in DECOMPOSITIONS) / n, "count")

    steps = counts.get("stepwise.steps", 0)
    stepwise_calls = total("stepwise.stepwise_fw", 0)
    loop_s = total("stepwise.stepwise_fw", 1) - child_seconds(
        tracer.spans, ops, "stepwise.stepwise_fw", "eriksen.compute_diagnostics")
    metrics["stepwise.stepwise_fw.s"] = (total("stepwise.stepwise_fw", 1) / n, "s")
    metrics["stepwise.steps"] = (steps / n, "count")
    metrics["stepwise.step_s"] = (ratio(loop_s, steps), "s")
    metrics["stepwise.converged_frac"] = (
        ratio(counts.get("stepwise.converged", 0), stepwise_calls), "fraction")

    for name in ("sign_operator", "inv_sqrt", "principal_sqrt", "spectral_gap",
                 "unitary_log", "matrix_exp"):
        calls_and_seconds(f"matfunc.{name}")

    calls_and_seconds("eriksen.compute_diagnostics")
    for name in ("eriksen.eriksen_transform", "eriksen.eriksen_transform_alt"):
        metrics[f"{name}.self_s"] = (total(name, 2) / n, "s")

    for name in ("check_commutation", "u_fw_exact", "weak_field_sqrt"):
        metrics[f"exact_case.{name}.s"] = (total(f"exact_case.{name}", 1) / n, "s")
    exact_calls = total("exact_case.u_fw_exact", 0)
    metrics["exact_case.applicable_frac"] = (
        ratio(exact_calls - total("exact_case.u_fw_exact", 3), exact_calls), "fraction")

    for name in ("odd_projection", "even_projection", "odd_norm_ratio"):
        calls_and_seconds(f"algebra.{name}")

    for name in ("models.build_model", "fileio.read_matrix", "fileio.write_text"):
        metrics[f"{name}.s"] = (total(name, 1) / n, "s")
    metrics["fileio.bytes_written"] = (counts.get("fileio.bytes_written", 0) / n, "B")

    metrics["harness.run_comparison.self_s"] = (total("harness.run_comparison", 2) / n, "s")
    metrics["harness.report_json.s"] = (total("harness.report_json", 1) / n, "s")
    metrics["harness.error_records"] = (counts.get("harness.error_records", 0) / n, "count")
    metrics["harness.error_records.NotCommuting"] = (
        counts.get("harness.error_records.NotCommuting", 0) / n, "count")
    return metrics


def layer_table(tracer, ops):
    """Human-readable rows for every traced name, slowest first."""
    n = len(ops)
    totals = span_totals(tracer.spans, ops)
    rows = [f"{'span':44s} {'calls/op':>9s} {'s/op':>10s} {'self s/op':>10s}"]
    for name, (calls, seconds, self_s, _) in sorted(
            totals.items(), key=lambda item: -item[1][1]):
        rows.append(f"{name:44s} {calls / n:9.2f} {seconds / n:10.6f} {self_s / n:10.6f}")
    return rows
