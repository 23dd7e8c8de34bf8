"""Runs the transform catalog over a list of models and serializes each outcome.

Every method is a route in ``ROUTES`` that gives each model of a batch
(U, U H U^H) or its error, and the scheduler diagnoses the route's stack as
one, so all are run, timed and recorded alike.  A comparison report holds one
row per requested method (diagnostics or an error record, never both), cross rows with pairwise
disagreements of the produced transforms and transformed Hamiltonians, and
model context.  The JSON form is deterministic: stable key order, shortest
round-trip floats, and no timing data unless explicitly requested.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .algebra import NORM_FLOOR, frobenius, relative_norm, require_hermitian
from .eriksen import DiagnosticSet, diagnose, eriksen_transform, eriksen_transform_alt
from .errors import FWLabError
from .exact_case import COMMUTE_TOL, ModelStack, u_fw_exact, weak_field_sqrt, weak_field_transform
from .matfunc import Slices, Spectrum
from .models import KIND_SYNTHETIC, ModelSpec, build_model
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
        return {**vars(self), "method_pair": list(self.method_pair)}


@dataclass
class ReportContext:
    """Model-level facts shared by all rows."""

    mass: float
    dim: int
    commutation_residual: float
    spectral_gap: float
    even_strength_ratio: float   # ||E||_F / (mass * sqrt(dim))

    def to_dict(self) -> dict:
        return dict(vars(self))


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
                           **vars(self.tolerances)},
        }

    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.methods)

    def row(self, method: str) -> MethodRow:
        for candidate in self.methods:
            if candidate.method == method:
                return candidate
        raise KeyError(method)


def _stepwise(slices, batch, extras):
    u, transformed, traces = stepwise_lockstep(batch.h, batch.grading, batch.masses,
                                               batch.tolerances)
    for row_extras, trace in zip(extras, traces):
        row_extras.update(converged=trace.converged, stop_reason=trace.stop_reason,
                          iterations=len(trace.iterations))
    return batch.h, u, transformed


def _weak_field(slices, batch, extras):
    # the root's error against |H| goes into the row even when the root fails its gap check
    parts, root = weak_field_sqrt(batch.parts, slices)
    reference = parts.h.apply(np.abs)
    errors = relative_norm(root - reference, reference).tolist()
    del reference
    for i, error in zip(slices.index, errors):
        extras[i]["sqrt_relative_error"] = error
    return weak_field_transform(parts.h, root, batch.grading, slices)


# The method catalog, in report order: tag -> route (Slices, batch, each model's row extras)
# -> (H, U, U H U^H) stacks of the models that pass, the others leaving the Slices (see
# ``run_comparisons``' ``stack``).  A route looks its function up in this module when called,
# so a wrapper set here is seen.
ROUTES = {
    "eriksen": lambda slices, b, extras: eriksen_transform(b.h, b.grading, slices),
    "eriksenalt": lambda slices, b, extras: eriksen_transform_alt(b.h, b.grading, slices),
    "exactcase": lambda slices, b, extras: u_fw_exact(b.parts, slices=slices),
    "stepwise": _stepwise,
    "weakfield": _weak_field,
}
METHOD_TAGS = tuple(ROUTES)
(METHOD_ERIKSEN, METHOD_ERIKSEN_ALT, METHOD_EXACT_CASE, METHOD_STEPWISE,
 METHOD_WEAK_FIELD) = METHOD_TAGS
# The routes that read a batch's ModelStack; they run first, so that it goes early.
_PARTS_READERS = (METHOD_EXACT_CASE, METHOD_WEAK_FIELD)

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


def _run_method(method, batch):
    """(row, (U, U H U^H, ||U||_F, ||U H U^H||_F) or None) of one method on each model of a
    batch: its route, then one diagnostics step on the stack it gives."""
    started = time.perf_counter()
    slices, extras = Slices(len(batch.index)), [{} for _ in batch.index]
    try:
        h, u, transformed = ROUTES[method](slices, batch, extras)
        norms = dict(zip(slices.index, zip(frobenius(u).tolist(), frobenius(transformed).tolist())))
        found = diagnose(slices, h, u, transformed, batch.grading, method != METHOD_WEAK_FIELD)
        results = dict(zip(slices.index, found))
    except FWLabError as exc:  # no slice is left, or one error fails them all
        results = {}
        slices.errors.update(dict.fromkeys(slices.index, (type(exc), str(exc))))
    elapsed, outcomes = time.perf_counter() - started, []
    for slot, row_extras in enumerate(extras):
        row = MethodRow(method=method, extras=row_extras, wall_time_seconds=elapsed)
        if (result := results.get(slot)) is None:
            kind, row.error = slices.errors[slot]
            row.error_type = kind.__name__
        else:
            row.diagnostics = result.diagnostics
        outcomes.append((row, result and (result.transform, result.transformed_hamiltonian,
                                          *norms[slot])))
    return outcomes


def _model(spec: ModelSpec):
    """[H, decomposition] of one spec, H checked as an eigh operand: by ``split_even_odd``, save
    for the synthetic kind, whose H is assembled from its checked parts."""
    h, _, decomposition = build_model(spec)
    if spec.kind == KIND_SYNTHETIC:
        require_hermitian(h, "operand")
    return [np.asarray(h, dtype=complex), decomposition]


def _report(spec, context, outcomes, tolerances) -> ComparisonReport:
    """One model's report from its {method: (row, produced)} in canonical order."""
    produced = [(m, pair) for m, (_, pair) in outcomes.items() if pair is not None]
    cross = []
    for i, (first, (u_first, h_first, u_norm, h_norm)) in enumerate(produced):
        for second, (u_second, h_second, _, _) in produced[i + 1:]:
            cross.append(CrossRow(
                method_pair=(first, second),
                hamiltonian_disagreement=frobenius(h_second - h_first) / max(h_norm, NORM_FLOOR),
                transform_disagreement=frobenius(u_second - u_first) / max(u_norm, NORM_FLOOR),
            ))
    rows = [row for row, _ in outcomes.values()]
    return ComparisonReport(spec.describe(), context, rows, cross, tolerances)


def run_comparisons(specs, methods=METHOD_TAGS,
                    tolerances: ToleranceConfig = ToleranceConfig()) -> list[ComparisonReport]:
    """Build each batch of models as stacks and run every requested method on them.

    Methods always appear in canonical order; ValueError for an empty or
    unknown method list.  A method failure (for example NotCommuting for the
    closed forms on a non-commuting model) becomes an error record in its
    row; it never aborts the report.  Each contiguous batch of
    ``lane_batch_size`` models is a stream of tasks, which the
    ``_lane_count`` lanes take in order: stepwise on the whole batch in
    lockstep (DimensionMismatch unless every model has the first one's
    shape), then one task per other method on the whole batch (without
    stepwise, each run of models of one shape is a batch of its own).  A
    batch is opened with H's stacked eigh alone, so the lockstep starts there;
    the rest of its preparation, each model's context among it, runs once, in
    the first task that needs it, and every task has its batch prepared before
    it records rows.  A report, the same as for its spec alone, is built once
    all of its rows are in; a row's ``wall_time_seconds`` runs from the start of
    its method's task on the batch to the end of the diagnostics.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_TAGS)}")
    methods = [m for m in METHOD_TAGS if m in methods]
    one_shot = sorted((m for m in methods if m != METHOD_STEPWISE),
                      key=lambda m: m not in _PARTS_READERS)
    specs = list(specs)
    if not specs:
        return []
    models = [_model(specs[0])] + [None] * (len(specs) - 1)
    grading = models[0][1].grading
    count = max(1, len(specs) // lane_batch_size(grading.dim))
    outcomes = [dict.fromkeys(methods) for _ in specs]
    contexts, reports = [None] * len(specs), [None] * len(specs)
    lock = threading.Lock()

    def record(i, produced):
        with lock:
            outcomes[i].update(produced)
            complete = None not in outcomes[i].values()
        if complete:
            reports[i] = _report(specs[i], contexts[i], outcomes[i], tolerances)
            contexts[i] = outcomes[i] = None

    def run(method, batch):
        if method != METHOD_STEPWISE:
            prepare(batch)
        found = _run_method(method, batch)
        prepare(batch)  # before its rows are in, so each report finds its context
        for i, outcome in zip(batch.index, found):
            record(i, {method: outcome})
        with lock:
            batch.readers.discard(method)
            if not batch.readers:
                batch.parts = None

    def prepare(batch):
        """Once per batch, other tasks waiting: the ModelStack ``parts`` with its odd-block SVD,
        kept while a method in ``readers`` is left, and each model's context."""
        with batch.preparing:
            if batch.ds is None:
                return
            parts, dim = ModelStack.of(batch.ds, batch.h), batch.grading.dim
            if METHOD_WEAK_FIELD in batch.readers:
                parts.odd_svd
            gaps = np.min(np.abs(batch.h.w), axis=-1).tolist()
            strengths = frobenius(parts.even_part) / (np.array(batch.masses) * np.sqrt(dim))
            for i, mass, commutation, gap, strength in zip(
                    batch.index, batch.masses, parts.commutation, gaps, strengths.tolist()):
                contexts[i] = ReportContext(mass, dim, commutation.commutator_residual, gap,
                                            strength)
            batch.parts, batch.ds = parts if batch.readers else None, None

    def stack(index):
        """The batch of built models ``index`` of one shape: H's stacked Spectrum, and the
        decompositions ``ds`` that ``prepare`` takes."""
        h, ds = np.stack([models[i][0] for i in index]), [models[i][1] for i in index]
        models[index[0]:index[-1] + 1] = [None] * len(index)
        return SimpleNamespace(index=index, h=Spectrum(h, *np.linalg.eigh(h)), ds=ds, parts=None,
                               readers={m for m in _PARTS_READERS if m in methods},
                               preparing=threading.Lock(), grading=ds[0].grading,
                               masses=[specs[i].mass for i in index], tolerances=tolerances)

    def stream():  # advanced under the lock, so a batch is built when its first task is taken
        for k in range(count):
            block = range(len(specs) * k // count, len(specs) * (k + 1) // count)
            for i in block:
                models[i] = models[i] or _model(specs[i])
                if METHOD_STEPWISE in methods:
                    grading.check(models[i][0])
            for _, index in itertools.groupby(block, key=lambda i: models[i][0].shape):
                batch = stack(list(index))
                if METHOD_STEPWISE in methods:
                    yield functools.partial(run, METHOD_STEPWISE, batch)
                yield from (functools.partial(run, m, batch) for m in one_shot)
                del batch

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

    # one lockstep per batch and the one-shot routes of each model, as parallel work
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
