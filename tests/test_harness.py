import json
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from fwlab import (
    DiagnosticSet,
    ModelSpec,
    Potential,
    ToleranceConfig,
    build_model,
    emit_report,
    report_csv,
    report_json,
    run_comparison,
)
from fwlab.eriksen import METHOD_TAGS
from fwlab.models import KIND_FREE, KIND_LATTICE, KIND_SYNTHETIC

FREE_SPEC = ModelSpec(kind=KIND_FREE, mass=1.0, momentum=(0.0, 0.0, 0.75))
GAUSS_SPEC = ModelSpec(
    kind=KIND_LATTICE, mass=1.0, n=16, length=8.0,
    potential=Potential("gaussian", (0.1, 1.0)),
)


def test_all_methods_agree_on_free_particle():
    report = run_comparison(FREE_SPEC)
    assert not report.has_errors()
    assert [row.method for row in report.methods] == list(METHOD_TAGS)
    assert len(report.cross) == 10
    exact = {"eriksen", "eriksenalt", "exactcase", "weakfield"}
    for cross in report.cross:
        pair = set(cross.method_pair)
        bound = 1e-10 if pair <= exact else 2e-8
        assert cross.hamiltonian_disagreement <= bound, cross
        assert cross.transform_disagreement <= bound, cross


def test_context_fields():
    report = run_comparison(FREE_SPEC)
    ctx = report.context
    assert ctx.dim == 4
    assert ctx.mass == 1.0
    assert ctx.commutation_residual <= 1e-15
    assert ctx.spectral_gap == pytest.approx(1.25, rel=1e-12)
    assert ctx.even_strength_ratio == 0.0


def test_non_commuting_model_reports_closed_form_error():
    report = run_comparison(GAUSS_SPEC)
    assert report.has_errors()
    row = report.row("exactcase")
    assert row.error_type == "NotCommuting"
    assert row.diagnostics is None
    # the other methods still produce transforms and cross rows
    produced = {r.method for r in report.methods if r.diagnostics is not None}
    assert produced == {"eriksen", "eriksenalt", "stepwise", "weakfield"}
    assert len(report.cross) == 6
    with pytest.raises(KeyError):
        report.row("nosuchmethod")


def test_weak_field_row_shows_nonunitarity():
    report = run_comparison(GAUSS_SPEC)
    row = report.row("weakfield")
    assert "sqrt_relative_error" in row.extras
    assert row.extras["sqrt_relative_error"] > 1e-6
    # the induced transform is only approximately unitary off the
    # commuting case; the row reports that instead of hiding it
    assert row.diagnostics.unitarity_residual > 1e-6
    assert row.diagnostics.exponent_odd_residual is None


def test_weak_field_failure_row():
    # a strong well drives the approximate root indefinite
    spec = replace(GAUSS_SPEC, potential=Potential("gaussian", (2.0, 1.0)))
    report = run_comparison(spec)
    row = report.row("weakfield")
    assert row.error == "approximate root is not positive definite"
    assert row.error_type == "OutsideValidityDomain"
    assert "sqrt_relative_error" in row.extras
    assert row.diagnostics is None
    assert not any("weakfield" in cross.method_pair for cross in report.cross)


def test_stepwise_row_extras():
    report = run_comparison(FREE_SPEC)
    row = report.row("stepwise")
    assert row.extras["converged"] is True
    assert row.extras["stop_reason"] == "tolerance_reached"
    assert row.extras["iterations"] == 13


def test_method_subset_and_ordering():
    report = run_comparison(FREE_SPEC, methods=("stepwise", "eriksen"))
    assert [row.method for row in report.methods] == ["eriksen", "stepwise"]
    for methods in (("nosuch",), ()):
        with pytest.raises(ValueError):
            run_comparison(FREE_SPEC, methods=methods)


@pytest.mark.parametrize("spec", [GAUSS_SPEC, FREE_SPEC], ids=["lattice", "free"])
def test_infinite_mass_names_the_mass(spec):
    # the rule is checked before the build multiplies by m; a RuntimeWarning fails here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^mass must be positive and finite, got inf$"):
            run_comparison(replace(spec, mass=np.inf))


def test_json_report_is_deterministic():
    text_a = report_json(run_comparison(GAUSS_SPEC))
    text_b = report_json(run_comparison(GAUSS_SPEC))
    assert text_a == text_b
    parsed = json.loads(text_a)
    assert set(parsed) == {"model", "context", "methods", "cross", "tolerances"}
    assert "wall_time_seconds" not in text_a
    timed = report_json(run_comparison(GAUSS_SPEC), include_timings=True)
    assert "wall_time_seconds" in timed


def test_csv_shape():
    report = run_comparison(GAUSS_SPEC)
    lines = report_csv(report).strip().split("\n")
    names = [f.name for f in fields(DiagnosticSet)]
    assert lines[0] == "method,metric,value"
    assert len(lines) == 1 + 5 * len(names)
    # errored method contributes blank values, not fabricated numbers
    exact_lines = [ln for ln in lines if ln.startswith("exactcase,")]
    assert len(exact_lines) == len(names)
    assert all(ln.endswith(",") for ln in exact_lines)


def test_emit_report_writes_file(tmp_path):
    report = run_comparison(FREE_SPEC, methods=("eriksen",))
    path = tmp_path / "report.json"
    text = emit_report(report, "json", path)
    assert path.read_text() == text
    csv_text = emit_report(report, "csv")
    assert csv_text.startswith("method,metric,value")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_tolerance_config_serialization():
    tols = ToleranceConfig()
    # the report's tolerances block: the fixed commutation and gap rules, then the stopping rule
    assert tols.to_dict() == {"commute_tol": 1e-12, "gap_tol": None,
                              "stepwise_tol": 1e-8, "max_iterations": 50}
    assert [f.name for f in fields(ToleranceConfig)] == ["stepwise_tol", "max_iterations"]
    report = run_comparison(
        FREE_SPEC, methods=("stepwise",),
        tolerances=ToleranceConfig(stepwise_tol=1e-3),
    )
    assert report.row("stepwise").extras["iterations"] < 13


def test_synthetic_model_report_runs_closed_forms():
    spec = ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 0.02), seed=3)
    report = run_comparison(spec)
    assert not report.has_errors()
    assert report.context.commutation_residual <= 1e-13
    row = report.row("exactcase")
    assert row.diagnostics.block_diagonality <= 1e-11


def _count_decompositions(monkeypatch, spec):
    """Run one comparison with eigh, eigvalsh and svd counted."""
    counts = Counter()

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    report = run_comparison(spec)
    return counts, report.row("stepwise").extras["iterations"]


@pytest.mark.parametrize("spec, eigh, eigvalsh, one_shot", [
    # H is decomposed once for every route; exactcase stops at NotCommuting
    pytest.param(GAUSS_SPEC, 6, 4, 13, id="gaussian-lattice"),
    # exactcase runs too and reads the shared spectrum of H
    pytest.param(FREE_SPEC, 8, 5, 16, id="free-particle"),
])
def test_decomposition_counts_pinned(monkeypatch, spec, eigh, eigvalsh, one_shot):
    counts, steps = _count_decompositions(monkeypatch, spec)
    # one SVD each for eriksen's rotation angles, eriksenalt's polar factor
    # and the odd block that exactcase and weakfield share, one per stepwise step
    assert dict(counts) == {"eigh": eigh, "eigvalsh": eigvalsh, "svd": 3 + steps}
    assert sum(counts.values()) - steps == one_shot


def test_closed_forms_share_one_svd_of_the_odd_block(monkeypatch):
    spec = ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 0.02), seed=3)
    operands = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        operands.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    report = run_comparison(spec, methods=("exactcase", "weakfield"))
    assert not report.has_errors()
    _, _, d = build_model(spec)
    assert len(operands) == 1
    np.testing.assert_array_equal(operands[0], d.odd_part[:6, 6:])
