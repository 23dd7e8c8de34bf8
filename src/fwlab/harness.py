"""Runs the transform catalog over one model and serializes the outcome.

A comparison report holds one row per requested method (diagnostics or an
error record, never both), cross rows with pairwise disagreements of the
produced transforms and transformed Hamiltonians, and model context.  The
JSON form is deterministic: stable key order, shortest round-trip floats,
and no timing data unless explicitly requested.
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
from .eriksen import DiagnosticSet, compute_diagnostics, eriksen_transform, eriksen_transform_alt
from .errors import FWLabError, OutsideValidityDomain
from .exact_case import COMMUTE_TOL, check_commutation, u_fw_exact, weak_field_sqrt
from .matfunc import Spectrum, check_gap, inv_sqrt, spectral_gap
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


def _weak_field_row(decomposition, h, grading, row: MethodRow):
    """Approximate-root route: diagnostics of the transform it induces.

    The approximate root R replaces sqrt(H^2): with lambda_w = H R^(-1) and
    K_w = 1 + (beta lambda_w + lambda_w beta - 2)/4, U = (1/2)(1 + beta
    lambda_w) [(K_w + K_w^H)/2]^(-1/2), since off the commuting case K_w is
    not Hermitian.  U is then only approximately unitary, which is what the
    diagnostics are meant to show, so the unitary result wrapper is
    bypassed on purpose.  The reference root is |H|.  Returns
    (U, U H U^H); OutsideValidityDomain when the root fails ``check_gap``.
    """
    h = Spectrum.of(h)
    root = weak_field_sqrt(decomposition)
    reference = h.apply(np.abs)
    row.extras["sqrt_relative_error"] = relative_norm(root - reference, reference)
    root = Spectrum.of(0.5 * (root + root.conj().T))
    check_gap(root.w, OutsideValidityDomain, "smallest eigenvalue of the approximate root")
    lam = h.matrix @ root.apply(np.reciprocal)
    beta_lam = grading.signs[:, None] * lam
    eye = np.eye(grading.dim, dtype=complex)
    core = eye + 0.25 * (beta_lam + lam * grading.signs - 2.0 * eye)
    u = 0.5 * (eye + beta_lam) @ inv_sqrt(0.5 * (core + core.conj().T))
    transformed = u @ h.matrix @ u.conj().T
    row.diagnostics = compute_diagnostics(u, h, grading, transformed)
    return u, transformed


# The method catalog, in report order; _run_method's if/elif chain dispatches on it.
METHOD_ERIKSEN = "eriksen"
METHOD_ERIKSEN_ALT = "eriksenalt"
METHOD_EXACT_CASE = "exactcase"
METHOD_STEPWISE = "stepwise"
METHOD_WEAK_FIELD = "weakfield"
METHOD_TAGS = (
    METHOD_ERIKSEN,
    METHOD_ERIKSEN_ALT,
    METHOD_EXACT_CASE,
    METHOD_STEPWISE,
    METHOD_WEAK_FIELD,
)

# Lanes open from count * dim^2 >= CONCURRENCY_MIN_DIM^2 (one model at dim 128, 16 at dim 32),
# the sweep pool in cli from dim 128; below, threads contend for the GIL.
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


def _run_lanes(methods, count: int, dim: int) -> bool:
    """Whether stepwise runs beside the one-shot routes: on ``lane_batch_size`` models or
    more, with another method, two usable cores, and OpenBLAS on one thread in every copy."""
    if count < lane_batch_size(dim) or METHOD_STEPWISE not in methods or len(methods) < 2:
        return False
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # a second caller thread stacked on threaded BLAS makes a comparison slower
    return (cores or 1) >= 2 and {get() for get, _ in _loaded_openblas()} == {1}


def _run_method(method, h, grading, decomposition, finish=None):
    """One method's row and its (U, U H U^H); None in place of the pair after a failure.
    Stepwise calls ``finish``, which ends the model's run in ``stepwise_lockstep``."""
    row = MethodRow(method=method)
    pair = None
    started = time.perf_counter()
    try:
        if method == METHOD_ERIKSEN:
            result = eriksen_transform(h, grading)
        elif method == METHOD_ERIKSEN_ALT:
            result = eriksen_transform_alt(h, grading)
        elif method == METHOD_EXACT_CASE:
            result = u_fw_exact(decomposition, h=h)
        elif method == METHOD_STEPWISE:
            result, trace = finish()
            row.extras["converged"] = trace.converged
            row.extras["stop_reason"] = trace.stop_reason
            row.extras["iterations"] = len(trace.iterations)
        else:
            pair = _weak_field_row(decomposition, h, grading, row)
        if method != METHOD_WEAK_FIELD:
            row.diagnostics = result.diagnostics
            pair = result.transform, result.transformed_hamiltonian
    except FWLabError as exc:
        row.error = str(exc)
        row.error_type = type(exc).__name__
    row.wall_time_seconds = time.perf_counter() - started
    return row, pair


def _model(spec: ModelSpec):
    """[Spectrum of H, grading, decomposition, context] of one spec."""
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
    return [h, grading, decomposition, context]


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
    row; it never aborts the report.  Stepwise steps all models in lockstep
    (DimensionMismatch unless they share one shape); the other methods run
    one model at a time, on one helper thread beside it where ``_run_lanes``
    allows.  A report, the same as for its spec alone, is built and its
    model's matrices dropped once all of its rows are in.  A stepwise row's
    ``wall_time_seconds`` runs from the start of the shared loop.
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
    models = [_model(spec) for spec in specs]
    if not models:
        return []
    outcomes = [dict.fromkeys(methods) for _ in models]
    reports = [None] * len(models)
    lock = threading.Lock()

    def record(i, produced):
        with lock:
            outcomes[i].update(produced)
            complete = None not in outcomes[i].values()
        if complete:
            reports[i] = _report(specs[i], models[i][3], outcomes[i], tolerances)
            models[i] = outcomes[i] = None

    def stepwise_lane():
        if METHOD_STEPWISE in methods:
            started = time.perf_counter()
            for i, finish in stepwise_lockstep([h for h, *_ in models], models[0][1],
                                               [spec.mass for spec in specs], tolerances):
                row, pair = _run_method(METHOD_STEPWISE, *models[i][:3], finish=finish)
                row.wall_time_seconds = time.perf_counter() - started
                record(i, {METHOD_STEPWISE: (row, pair)})

    def one_shot_lane():
        for i in range(len(models) if one_shot else 0):
            h, grading, decomposition, _ = models[i]
            models[i][2] = None  # only the one-shot routes read it
            record(i, {m: _run_method(m, h, grading, decomposition) for m in one_shot})

    if _run_lanes(methods, len(models), models[0][1].dim):
        with ThreadPoolExecutor(max_workers=1) as lane:
            pending = lane.submit(one_shot_lane)
            stepwise_lane()
            pending.result()
    else:
        stepwise_lane()
        one_shot_lane()
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
