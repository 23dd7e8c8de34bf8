"""Runs the transform catalog over one model and serializes the outcome.

A comparison report holds one row per requested method (diagnostics or an
error record, never both), cross rows with pairwise disagreements of the
produced transforms and transformed Hamiltonians, and model context.  The
JSON form is deterministic: stable key order, shortest round-trip floats,
and no timing data unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .algebra import frobenius, relative_norm
from .eriksen import DiagnosticSet, compute_diagnostics, eriksen_transform, eriksen_transform_alt
from .errors import FWLabError, OutsideValidityDomain
from .exact_case import COMMUTE_TOL, check_commutation, u_fw_exact, weak_field_sqrt
from .matfunc import Spectrum, inv_sqrt, spectral_gap
from .models import ModelSpec, build_model
from .fileio import write_text
from .stepwise import ToleranceConfig, stepwise_fw


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
    (U, U H U^H); OutsideValidityDomain when the root is not positive definite.
    """
    h = Spectrum.of(h)
    root = weak_field_sqrt(decomposition)
    reference = h.apply(np.abs)
    row.extras["sqrt_relative_error"] = relative_norm(root - reference, reference)
    root = Spectrum.of(0.5 * (root + root.conj().T))
    if root.w[0] <= 0.0:
        raise OutsideValidityDomain("approximate root is not positive definite")
    lam = h.matrix @ root.apply(np.reciprocal)
    beta_lam = grading.signs[:, None] * lam
    eye = np.eye(grading.dim, dtype=complex)
    core = eye + 0.25 * (beta_lam + lam * grading.signs - 2.0 * eye)
    u = 0.5 * (eye + beta_lam) @ inv_sqrt(0.5 * (core + core.conj().T))
    transformed = u @ h.matrix @ u.conj().T
    row.diagnostics = compute_diagnostics(u, h, grading, transformed)
    return u, transformed


# The method catalog, in report order; run_comparison's if/elif chain dispatches on it.
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


def run_comparison(spec: ModelSpec, methods=METHOD_TAGS,
                   tolerances: ToleranceConfig = ToleranceConfig()) -> ComparisonReport:
    """Build the model and its Spectrum once and run every requested method on them.

    Methods always appear in canonical order; ValueError for an empty or
    unknown method list.  A method failure (for example NotCommuting for the
    closed forms on a non-commuting model) becomes an error record in its
    row; it never aborts the report.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_TAGS)}")
    methods = [m for m in METHOD_TAGS if m in methods]

    h, grading, decomposition = build_model(spec)
    h = Spectrum.of(h)
    commutation = check_commutation(decomposition)
    context = ReportContext(
        mass=spec.mass,
        dim=grading.dim,
        commutation_residual=commutation.commutator_residual,
        spectral_gap=spectral_gap(h).min_abs_eigenvalue,
        even_strength_ratio=frobenius(decomposition.even_part)
        / (spec.mass * np.sqrt(grading.dim)),
    )

    rows = []
    produced = {}   # method -> (U, U H U^H), in method order
    for method in methods:
        row = MethodRow(method=method)
        started = time.perf_counter()
        try:
            if method == METHOD_ERIKSEN:
                result = eriksen_transform(h, grading)
            elif method == METHOD_ERIKSEN_ALT:
                result = eriksen_transform_alt(h, grading)
            elif method == METHOD_EXACT_CASE:
                result = u_fw_exact(decomposition, h=h)
            elif method == METHOD_STEPWISE:
                result, trace = stepwise_fw(h, grading, spec.mass, tolerances)
                row.extras["converged"] = trace.converged
                row.extras["stop_reason"] = trace.stop_reason
                row.extras["iterations"] = len(trace.iterations)
            else:
                produced[method] = _weak_field_row(decomposition, h, grading, row)
            if method != METHOD_WEAK_FIELD:
                row.diagnostics = result.diagnostics
                produced[method] = result.transform, result.transformed_hamiltonian
        except FWLabError as exc:
            row.error = str(exc)
            row.error_type = type(exc).__name__
        row.wall_time_seconds = time.perf_counter() - started
        rows.append(row)

    cross = []
    pairs = list(produced.items())
    for i, (first, (u_first, h_first)) in enumerate(pairs):
        for second, (u_second, h_second) in pairs[i + 1:]:
            cross.append(CrossRow(
                method_pair=(first, second),
                hamiltonian_disagreement=relative_norm(h_second - h_first, h_first),
                transform_disagreement=relative_norm(u_second - u_first, u_first),
            ))

    return ComparisonReport(
        model_descriptor=spec.describe(),
        context=context,
        methods=rows,
        cross=cross,
        tolerances=tolerances,
    )


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
