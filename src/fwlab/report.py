"""The comparison report, its assembly and its serializers.  A report holds one row per
method (diagnostics or an error record, never both), cross rows with the pairwise disagreements
of the produced U and U H U^H, and model context.  Its JSON is deterministic: sorted keys,
shortest round-trip floats, and no timing data unless ``report_json`` is asked for it."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import NORM_FLOOR, frobenius, require_type
from .eriksen import DiagnosticSet, FWResult
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
            # null: every gap test is matfunc.check_gap at its values' own scale, not one tolerance
            "tolerances": {"commute_tol": COMMUTE_TOL, "gap_tol": None, **vars(self.tolerances)},
        }

    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.methods)

    def row(self, method: str) -> MethodRow:
        return {row.method: row for row in self.methods}[method]


def report_contexts(parts: ModelStack, masses) -> list[ReportContext]:
    """Each model's context from its batch's ModelStack and its spec's mass, kept as given."""
    dim = parts.even_part.shape[-1]
    gaps = np.min(np.abs(parts.h.w), axis=-1).tolist()
    strengths = (frobenius(parts.even_part) / (np.array(masses) * np.sqrt(dim))).tolist()
    return [ReportContext(mass, dim, r, gap, strength) for mass, r, gap, strength
            in zip(masses, parts.commutation.tolist(), gaps, strengths)]


def assemble_report(spec, context, outcomes, tolerances) -> ComparisonReport:
    """One model's report from its {method: ``_run_method``'s (seconds, extras, outcome)}: a row
    per method, and a cross row per pair of FWResults, canonically."""
    rows, produced, cross = [], [], []
    for method, (seconds, extras, outcome) in outcomes.items():
        rows.append(row := MethodRow(method, wall_time_seconds=seconds, extras=extras))
        if isinstance(outcome, FWResult):
            row.diagnostics = outcome.diagnostics
            produced.append((method, outcome))
        else:
            row.error_type, row.error = outcome[0].__name__, outcome[1]
    for i, (first, a) in enumerate(produced[:-1]):  # a's norms once, as the first of its pairs
        h, u = a.transformed_hamiltonian, a.transform
        h_norm, u_norm = frobenius(h), frobenius(u)
        cross += [CrossRow((first, second), _disagreement(h, b.transformed_hamiltonian, h_norm),
                           _disagreement(u, b.transform, u_norm)) for second, b in produced[i + 1:]]
    return ComparisonReport(spec.describe(), context, rows, cross, tolerances)


def _disagreement(a, b, norm) -> float:
    """||b - a||_F / max(``norm``, NORM_FLOOR), ``norm`` being ||a||_F; where ||b - a||_F^2
    overflows, of a and b over 2^k, k the exponent of their larger norm, exactly."""
    ratio = frobenius(b - a) / max(norm, NORM_FLOOR)
    if not ratio < np.inf:
        scale = 2.0 ** -int(np.frexp(max(norm, frobenius(b)))[1])
        ratio = frobenius(b * scale - a * scale) / (max(norm, NORM_FLOOR) * scale)
    return ratio


def json_text(data) -> str:
    """Canonical JSON text of an acyclic dict: sorted keys, indent 2, shortest round-trip floats."""
    return json.dumps(data, sort_keys=True, indent=2, check_circular=False) + "\n"


def report_json(report: ComparisonReport, include_timings: bool = False) -> str:
    """A ComparisonReport's ``json_text``; rows' ``wall_time_seconds`` only if ``include_timings``
    is True (a numpy bool is read as the bool it holds; ValueError for any other type)."""
    data = require_type(report, ComparisonReport, "report").to_dict()
    if not require_type(include_timings, (bool, np.bool_), "include_timings", "a bool"):
        for row in data["methods"]:
            del row["wall_time_seconds"]
    return json_text(data)


def report_csv(report: ComparisonReport) -> str:
    """One row per (method, metric); blank value where a metric is absent."""
    lines = ["method,metric,value"]
    names = [f.name for f in fields(DiagnosticSet)]
    for row in require_type(report, ComparisonReport, "report").methods:
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
