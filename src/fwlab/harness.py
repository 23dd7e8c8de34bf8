"""Runs the transform catalog over a list of models and serializes each outcome.

Every method is a route in ``ROUTES`` that returns an ``FWResult``, so all are
run, timed and recorded alike.  A comparison report holds one row per requested
method (diagnostics or an error record, never both), cross rows with pairwise
disagreements of the produced transforms and transformed Hamiltonians, and
model context.  The JSON form is deterministic: stable key order, shortest
round-trip floats, and no timing data unless explicitly requested.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .algebra import frobenius, relative_norm
from .eriksen import DiagnosticSet, eriksen_transform, eriksen_transform_alt
from .errors import FWLabError
from .exact_case import (COMMUTE_TOL, check_commutation, u_fw_exact, weak_field_sqrt,
                         weak_field_transform)
from .matfunc import Spectrum, spectral_gap
from .models import ModelSpec, build_model
from .fileio import write_text
from .stepwise import ToleranceConfig, stepwise_lockstep


@dataclass
class MethodRow:
    """Outcome of one method on one model."""

    method: str
    diagnostics: DiagnosticSet | None = None
    error: str | None = None
    error_type: str | None = None
    wall_time_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool) -> dict:
        row = {
            "method": self.method,
            "diagnostics": None if self.diagnostics is None else self.diagnostics.to_dict(),
            "error": self.error,
            "error_type": self.error_type,
            "extras": dict(sorted(self.extras.items())),
        }
        if include_timings:
            row["wall_time_seconds"] = self.wall_time_seconds
        return row


@dataclass
class CrossRow:
    """Pairwise disagreement of two produced transforms."""

    method_pair: tuple[str, str]
    hamiltonian_disagreement: float
    transform_disagreement: float

    def to_dict(self) -> dict:
        return {**asdict(self), "method_pair": list(self.method_pair)}


@dataclass
class ReportContext:
    """Model-level facts shared by all rows."""

    mass: float
    dim: int
    commutation_residual: float
    spectral_gap: float
    even_strength_ratio: float   # ||E||_F / (mass * sqrt(dim))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ComparisonReport:
    model_descriptor: str
    context: ReportContext
    methods: list[MethodRow]
    cross: list[CrossRow]
    tolerances: ToleranceConfig

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "model": self.model_descriptor,
            "context": self.context.to_dict(),
            "methods": [row.to_dict(include_timings) for row in self.methods],
            "cross": [row.to_dict() for row in self.cross],
            # null: every gap test is the relative rule matfunc.check_gap, not a fixed tolerance
            "tolerances": {"commute_tol": COMMUTE_TOL, "gap_tol": None,
                           **asdict(self.tolerances)},
        }

    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.methods)

    def row(self, method: str) -> MethodRow:
        for candidate in self.methods:
            if candidate.method == method:
                return candidate
        raise KeyError(method)


def _stepwise(h, decomposition, extras, finish):
    result, trace = finish()
    extras.update(converged=trace.converged, stop_reason=trace.stop_reason,
                  iterations=len(trace.iterations))
    return result


def _weak_field(h, decomposition, extras, finish):
    # the root's error against |H| goes into the row even when the root fails its gap check
    root = weak_field_sqrt(decomposition)
    reference = h.apply(np.abs)
    extras["sqrt_relative_error"] = relative_norm(root - reference, reference)
    return weak_field_transform(h, root, decomposition.grading)


# The method catalog, in report order: tag -> route (H's Spectrum, decomposition, the row's
# extras, finish) -> FWResult, where finish ends a stepwise run in ``stepwise_lockstep``.
# A route looks its function up in this module when called, so a wrapper set here is seen.
ROUTES = {
    "eriksen": lambda h, d, extras, finish: eriksen_transform(h, d.grading),
    "eriksenalt": lambda h, d, extras, finish: eriksen_transform_alt(h, d.grading),
    "exactcase": lambda h, d, extras, finish: u_fw_exact(d, h=h),
    "stepwise": _stepwise,
    "weakfield": _weak_field,
}
METHOD_TAGS = tuple(ROUTES)
(METHOD_ERIKSEN, METHOD_ERIKSEN_ALT, METHOD_EXACT_CASE, METHOD_STEPWISE,
 METHOD_WEAK_FIELD) = METHOD_TAGS

# Lanes open from count * dim^2 >= CONCURRENCY_MIN_DIM^2 (one model at dim 128, 16 at dim 32);
# below, threads contend for the GIL.
CONCURRENCY_MIN_DIM = 128

# (get, set) thread-count entry points of the OpenBLAS builds numpy and
# scipy ship: numpy's 64-bit-integer build, scipy's, then a system library.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_GET_THREADS = ctypes.CFUNCTYPE(ctypes.c_int)
_SET_THREADS = ctypes.CFUNCTYPE(None, ctypes.c_int)


def openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS already loaded: found in the
    process's memory map, where there is one, and opened without loading anything new."""
    try:
        with open("/proc/self/maps") as maps:
            # Columns: address, permissions, offset, device, inode, path.
            rows = [line.split(maxsplit=5) for line in maps.read().splitlines()]
    except OSError:
        return []
    paths = {row[5] for row in rows if len(row) == 6 and "openblas" in os.path.basename(row[5])}
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                controls.append((_GET_THREADS((get_name, lib)), _SET_THREADS((set_name, lib))))
                break
            except AttributeError:
                continue
    return controls


# Read once for the lane gate (a map read costs 0.5-3 ms); numpy loads its OpenBLAS at import.
_loaded_openblas = functools.cache(openblas_thread_controls)


def lane_batch_size(dim: int) -> int:
    """Fewest models of dimension ``dim`` with count * dim^2 >= CONCURRENCY_MIN_DIM^2."""
    return max(1, -(-CONCURRENCY_MIN_DIM ** 2 // dim ** 2))


def _lane_count(tasks: int, count: int, dim: int) -> int:
    """Lanes, the caller among them, for ``tasks`` tasks on ``count`` models of dimension ``dim``:
    min(cores, tasks) from ``lane_batch_size`` models on single-threaded BLAS, else one."""
    if count < lane_batch_size(dim):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # a second caller thread stacked on threaded BLAS makes a comparison slower
    return min(cores or 1, tasks) if {get() for get, _ in _loaded_openblas()} == {1} else 1


def _run_method(method, h, decomposition, finish=None):
    """One method's row and its (U, U H U^H); None in place of the pair after a failure."""
    row, pair = MethodRow(method=method), None
    started = time.perf_counter()
    try:
        result = ROUTES[method](h, decomposition, row.extras, finish)
        row.diagnostics = result.diagnostics
        pair = result.transform, result.transformed_hamiltonian
    except FWLabError as exc:
        row.error = str(exc)
        row.error_type = type(exc).__name__
    row.wall_time_seconds = time.perf_counter() - started
    return row, pair


def _model(spec: ModelSpec):
    """[Spectrum of H, decomposition, context] of one spec."""
    h, grading, decomposition = build_model(spec)
    h = Spectrum.of(h)
    context = ReportContext(
        mass=spec.mass,
        dim=grading.dim,
        commutation_residual=check_commutation(decomposition).commutator_residual,
        spectral_gap=spectral_gap(h).min_abs_eigenvalue,
        even_strength_ratio=frobenius(decomposition.even_part)
        / (spec.mass * np.sqrt(grading.dim)),
    )
    return [h, decomposition, context]


def _report(spec, context, outcomes, tolerances) -> ComparisonReport:
    """One model's report from its {method: (row, pair)} in canonical order."""
    produced = [(m, pair) for m, (_, pair) in outcomes.items() if pair is not None]
    cross = []
    for i, (first, (u_first, h_first)) in enumerate(produced):
        for second, (u_second, h_second) in produced[i + 1:]:
            cross.append(CrossRow(
                method_pair=(first, second),
                hamiltonian_disagreement=relative_norm(h_second - h_first, h_first),
                transform_disagreement=relative_norm(u_second - u_first, u_first),
            ))
    rows = [row for row, _ in outcomes.values()]
    return ComparisonReport(spec.describe(), context, rows, cross, tolerances)


def run_comparisons(specs, methods=METHOD_TAGS,
                    tolerances: ToleranceConfig = ToleranceConfig()) -> list[ComparisonReport]:
    """Build each model and its Spectrum once and run every requested method on them.

    Methods always appear in canonical order; ValueError for an empty or
    unknown method list.  A method failure (for example NotCommuting for the
    closed forms on a non-commuting model) becomes an error record in its
    row; it never aborts the report.  Each contiguous batch of
    ``lane_batch_size`` models is a stream of tasks, which the
    ``_lane_count`` lanes take in order: stepwise on the whole batch in
    lockstep (DimensionMismatch unless every model has the first one's
    shape), then the other methods model by model.  A report, the same as for
    its spec alone, is built once all of its rows are in; a stepwise row's
    ``wall_time_seconds`` runs from the start of its batch.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_TAGS)}")
    methods = [m for m in METHOD_TAGS if m in methods]
    one_shot = [m for m in methods if m != METHOD_STEPWISE]
    specs = list(specs)
    if not specs:
        return []
    models = [_model(specs[0])] + [None] * (len(specs) - 1)
    grading = models[0][1].grading
    count = max(1, len(specs) // lane_batch_size(grading.dim))
    outcomes = [dict.fromkeys(methods) for _ in specs]
    reports = [None] * len(specs)
    lock = threading.Lock()

    def record(i, produced):
        with lock:
            outcomes[i].update(produced)
            complete = None not in outcomes[i].values()
        if complete:
            reports[i] = _report(specs[i], models[i][2], outcomes[i], tolerances)
            models[i] = outcomes[i] = None

    def stepwise(batch):
        started = time.perf_counter()
        for slot, finish in stepwise_lockstep([models[i][0] for i in batch], grading,
                                              [specs[i].mass for i in batch], tolerances):
            row, pair = _run_method(METHOD_STEPWISE, *models[batch[slot]][:2], finish)
            row.wall_time_seconds = time.perf_counter() - started
            record(batch[slot], {METHOD_STEPWISE: (row, pair)})

    def others(i):
        h, decomposition, _ = models[i]
        models[i][1] = None  # only the one-shot routes read it
        record(i, {m: _run_method(m, h, decomposition) for m in one_shot})

    def stream():  # advanced under the lock, so a batch is built when its first task is taken
        for k in range(count):
            batch = range(len(specs) * k // count, len(specs) * (k + 1) // count)
            for i in batch:
                models[i] = models[i] or _model(specs[i])
            if METHOD_STEPWISE in methods:
                yield functools.partial(stepwise, batch)
            yield from (functools.partial(others, i) for i in batch if one_shot)

    tasks = stream()

    def take():
        with lock:
            return next(tasks, None)

    def lane():
        try:
            while (task := take()) is not None:
                task()
        finally:
            with lock:
                tasks.close()  # after a failure the other lanes stop at their next task

    task_count = (count if METHOD_STEPWISE in methods else 0) + (len(specs) if one_shot else 0)
    lanes = _lane_count(task_count, len(specs), grading.dim)
    if lanes == 1:
        lane()
    else:
        with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
            helpers = [pool.submit(lane) for _ in range(lanes - 1)]
            lane()
            for helper in helpers:
                helper.result()
    return reports


def run_comparison(spec: ModelSpec, methods=METHOD_TAGS,
                   tolerances: ToleranceConfig = ToleranceConfig()) -> ComparisonReport:
    """The report of one spec: ``run_comparisons([spec], methods, tolerances)[0]``."""
    return run_comparisons([spec], methods, tolerances)[0]


def report_json(report: ComparisonReport, include_timings: bool = False) -> str:
    """Canonical JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(report.to_dict(include_timings), sort_keys=True, indent=2) + "\n"


def report_csv(report: ComparisonReport) -> str:
    """One row per (method, metric); blank value where a metric is absent."""
    lines = ["method,metric,value"]
    names = [f.name for f in fields(DiagnosticSet)]
    for row in report.methods:
        metrics = row.diagnostics.to_dict() if row.diagnostics is not None else {}
        for name in names:
            value = metrics.get(name)
            rendered = "" if value is None else repr(float(value))
            lines.append(f"{row.method},{name},{rendered}")
    return "\n".join(lines) + "\n"


def emit_report(report: ComparisonReport, fmt: str, path=None,
                include_timings: bool = False) -> str:
    """Serialize a report; write atomically when a path is given."""
    if fmt == "json":
        text = report_json(report, include_timings)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        write_text(path, text)
    return text
