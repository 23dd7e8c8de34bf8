"""The comparison report, its assembly and its serializers.  A report holds one row per
method (diagnostics or an error record, never both), cross rows with the pairwise disagreements
of the produced U and U H U^H, and model context.  Its JSON is deterministic: sorted keys,
shortest round-trip floats, and no timing data unless ``report_json`` is asked for it."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import NORM_FLOOR, frobenius
from .eriksen import DiagnosticSet
from .exact_case import COMMUTE_TOL, ModelStack
from .fileio import write_text
from .stepwise import ToleranceConfig


@dataclass
class MethodRow:
    """Outcome of one method on one model."""

    method: str
    diagnostics: DiagnosticSet | None = None
    error: str | None = None
    error_type: str | None = None
    wall_time_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        diagnostics = None if self.diagnostics is None else self.diagnostics.to_dict()
        return {**vars(self), "diagnostics": diagnostics}


@dataclass
class CrossRow:
    """Pairwise disagreement of two produced transforms."""

    method_pair: tuple[str, str]
    hamiltonian_disagreement: float
    transform_disagreement: float


@dataclass
class ReportContext:
    """Model-level facts shared by all rows."""

    mass: float
    dim: int
    commutation_residual: float
    spectral_gap: float
    even_strength_ratio: float   # ||E||_F / (mass * sqrt(dim))


@dataclass
class ComparisonReport:
    model_descriptor: str
    context: ReportContext
    methods: list[MethodRow]
    cross: list[CrossRow]
    tolerances: ToleranceConfig

    def to_dict(self) -> dict:
        """Every field, timings included; the context and cross rows are their ``vars``."""
        return {
            "model": self.model_descriptor,
            "context": vars(self.context),
            "methods": [row.to_dict() for row in self.methods],
            "cross": [vars(row) for row in self.cross],
            # null: every gap test is the relative rule matfunc.check_gap, not a fixed tolerance
            "tolerances": {"commute_tol": COMMUTE_TOL, "gap_tol": None, **vars(self.tolerances)},
        }

    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.methods)

    def row(self, method: str) -> MethodRow:
        return {row.method: row for row in self.methods}[method]


def report_contexts(parts: ModelStack, masses) -> list[ReportContext]:
    """Each model's context from its batch's ModelStack and its spec's mass, kept as given."""
    dim = parts.grading.dim
    gaps = np.min(np.abs(parts.h.w), axis=-1).tolist()
    strengths = (frobenius(parts.even_part) / (np.array(masses) * np.sqrt(dim))).tolist()
    return [ReportContext(mass, dim, c.commutator_residual, gap, strength)
            for mass, c, gap, strength in zip(masses, parts.commutation, gaps, strengths)]


def assemble_report(spec, context, outcomes, tolerances) -> ComparisonReport:
    """One model's report from its {method: ``_run_method``'s (row, produced)}, canonically."""
    produced = [(m, pair) for m, (_, pair) in outcomes.items() if pair is not None]
    cross = []
    for i, (first, (u_first, h_first, u_norm, h_norm)) in enumerate(produced):
        for second, (u_second, h_second, _, _) in produced[i + 1:]:
            cross.append(CrossRow((first, second),
                                  frobenius(h_second - h_first) / max(h_norm, NORM_FLOOR),
                                  frobenius(u_second - u_first) / max(u_norm, NORM_FLOOR)))
    rows = [row for row, _ in outcomes.values()]
    return ComparisonReport(spec.describe(), context, rows, cross, tolerances)


def json_text(data) -> str:
    """Canonical JSON text of an acyclic dict: sorted keys, indent 2, shortest round-trip floats."""
    return json.dumps(data, sort_keys=True, indent=2, check_circular=False) + "\n"


def report_json(report: ComparisonReport, include_timings: bool = False) -> str:
    """A report's canonical JSON text (``json_text``); rows' ``wall_time_seconds`` only if asked."""
    data = report.to_dict()
    if not include_timings:
        for row in data["methods"]:
            del row["wall_time_seconds"]
    return json_text(data)


def report_csv(report: ComparisonReport) -> str:
    """One row per (method, metric); blank value where a metric is absent."""
    lines = ["method,metric,value"]
    names = [f.name for f in fields(DiagnosticSet)]
    for row in report.methods:
        metrics = row.diagnostics.to_dict() if row.diagnostics is not None else {}
        for name in names:
            value = metrics.get(name)
            lines.append(f"{row.method},{name},{'' if value is None else repr(float(value))}")
    return "\n".join(lines) + "\n"


def emit_report(report: ComparisonReport, fmt: str, path=None) -> str:
    """Serialize a report (default JSON or CSV); write atomically when a path is given."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    text = report_json(report) if fmt == "json" else report_csv(report)
    if path is not None:
        write_text(path, text)
    return text
