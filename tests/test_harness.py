import json
import os
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from fwlab import (
    DiagnosticSet,
    ModelSpec,
    Potential,
    ToleranceConfig,
    build_model,
    cli,
    emit_report,
    report_csv,
    report_json,
    run_comparison,
)
from fwlab import harness
from fwlab.harness import METHOD_TAGS
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
    assert row.error == ("smallest eigenvalue of the approximate root -2.955e-01 "
                         "is below the gap tolerance 2.731e-10")
    assert row.error_type == "OutsideValidityDomain"
    assert "sqrt_relative_error" in row.extras
    assert row.diagnostics is None
    assert not any("weakfield" in cross.method_pair for cross in report.cross)


def test_weak_field_refuses_a_near_zero_root():
    # E = c with c just under the smallest epsilon: H and the approximate root
    # both have a relative gap of 1e-14, so weakfield refuses as eriksen does
    _, _, d = build_model(ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(0.0,), seed=3))
    eps_min = np.sqrt(1.0 + d.odd_svd[1].min() ** 2)
    spec = ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(eps_min * (1 - 1e-14),), seed=3)
    report = run_comparison(spec, methods=("eriksen", "weakfield"))
    assert report.row("eriksen").error_type == "SingularHamiltonian"
    row = report.row("weakfield")
    assert row.error_type == "OutsideValidityDomain"
    assert row.error.startswith("smallest eigenvalue of the approximate root 9.")
    assert row.diagnostics is None
    assert report.cross == []


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
    # the report's tolerances block: the fixed commutation and gap rules, then the stopping rule
    assert run_comparison(FREE_SPEC).to_dict()["tolerances"] == {
        "commute_tol": 1e-12, "gap_tol": None, "stepwise_tol": 1e-8, "max_iterations": 50}
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


LATTICE_128 = ModelSpec(
    kind=KIND_LATTICE, mass=1.0, n=64, length=25.0,
    potential=Potential("gaussian", (0.15, 2.0)),
)


def _open_gate(monkeypatch, blas_threads=1, cores=2, min_dim=0):
    """Fake the facts run_comparison's lane gate reads; see ``_run_lanes``.
    ``blas_threads`` None stands for a process with no OpenBLAS loaded."""
    controls = [] if blas_threads is None else [(lambda: blas_threads, lambda count: None)]
    monkeypatch.setattr(harness, "_loaded_openblas", lambda: controls)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(harness, "CONCURRENCY_MIN_DIM", min_dim)


def _count_lanes(monkeypatch):
    """The max_workers of every lane pool run_comparison opens."""
    sizes = []

    class SpyPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", SpyPool)
    return sizes


def _reports(specs):
    reports = [run_comparison(spec) for spec in specs]
    return [report_json(r) for r in reports], [report_csv(r) for r in reports]


def test_lanes_write_the_serial_reports(monkeypatch, full_suite, one_blas_thread):
    specs = [spec for spec, *_ in full_suite] + [LATTICE_128]
    _open_gate(monkeypatch, min_dim=0)
    lanes = _count_lanes(monkeypatch)
    laned = _reports(specs)
    assert lanes == [1] * len(specs)
    monkeypatch.setattr(harness, "CONCURRENCY_MIN_DIM", 10 ** 9)
    assert _reports(specs) == laned
    assert len(lanes) == len(specs)


def test_lanes_repeat_bit_for_bit(monkeypatch, one_blas_thread):
    # criterion 10 under concurrency, at the real dim-128 threshold
    _open_gate(monkeypatch, min_dim=harness.CONCURRENCY_MIN_DIM)
    lanes = _count_lanes(monkeypatch)
    texts = {report_json(run_comparison(LATTICE_128)) for _ in range(3)}
    assert lanes == [1, 1, 1]
    assert len(texts) == 1


def test_lanes_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: every report is the serial one
    specs = [FREE_SPEC, GAUSS_SPEC,
             ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 0.02), seed=3)] * 2
    _open_gate(monkeypatch, min_dim=10 ** 9)
    serial = [report_json(run_comparison(spec)) for spec in specs]
    _open_gate(monkeypatch, min_dim=0)
    lanes = _count_lanes(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            laned = list(pool.map(lambda spec: report_json(run_comparison(spec)), specs,
                                  timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert lanes == [1] * len(specs)
    assert laned == serial


def _refusing_pool(max_workers):
    raise AssertionError("the lane pool must not be opened")


@pytest.mark.parametrize("gate, methods", [
    pytest.param({"blas_threads": 2}, METHOD_TAGS, id="threaded-blas"),
    pytest.param({"blas_threads": None}, METHOD_TAGS, id="no-openblas"),
    pytest.param({"cores": 1}, METHOD_TAGS, id="one-core"),
    pytest.param({"min_dim": 33}, METHOD_TAGS, id="below-threshold"),
    pytest.param({}, ("stepwise",), id="stepwise-alone"),
    pytest.param({}, ("eriksen", "weakfield"), id="no-stepwise"),
])
def test_lane_gate_keeps_the_serial_loop(monkeypatch, gate, methods):
    _open_gate(monkeypatch, **gate)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _refusing_pool)
    report = run_comparison(GAUSS_SPEC, methods)
    assert [row.method for row in report.methods] == [m for m in METHOD_TAGS if m in methods]
    # the same gate facts with all conditions met do open the pool
    _open_gate(monkeypatch)
    with pytest.raises(AssertionError, match="lane pool"):
        run_comparison(GAUSS_SPEC)


@pytest.mark.parametrize("route", ["eriksen_transform", "stepwise_fw"],
                         ids=["helper-lane", "calling-lane"])
def test_lane_failure_propagates_and_joins(monkeypatch, route):
    _open_gate(monkeypatch)
    lanes = _count_lanes(monkeypatch)

    def broken(*args, **kwargs):
        raise RuntimeError("kernel failure")

    monkeypatch.setattr(harness, route, broken)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="kernel failure"):
        run_comparison(GAUSS_SPEC)
    assert lanes == [1]
    assert threading.active_count() == baseline


@pytest.fixture
def blas_controls():
    """Loaded OpenBLAS controls, set to 2 threads and restored afterwards."""
    controls = harness.openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is loaded")
    original = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, original):
        set_(count)


@pytest.fixture
def one_blas_thread(blas_controls):
    """Every loaded OpenBLAS on one thread, as under OPENBLAS_NUM_THREADS=1."""
    for _, set_ in blas_controls:
        set_(1)
    return blas_controls


def _spy_blas_counts(monkeypatch, controls, error=None):
    """Record the BLAS thread counts each time the CLI runs a comparison."""
    seen = []

    def spy(*args, **kwargs):
        seen.append([get() for get, _ in controls])
        if error is not None:
            raise error
        return run_comparison(*args, **kwargs)

    monkeypatch.setattr(cli, "run_comparison", spy)
    return seen


def test_cli_runs_on_one_blas_thread(blas_controls, monkeypatch, capsys):
    seen = _spy_blas_counts(monkeypatch, blas_controls)
    assert cli.main(["free", "--mass", "1", "--methods", "eriksen"]) == 0
    assert seen == [[1] * len(blas_controls)]


def test_cli_restores_blas_threads(blas_controls, monkeypatch, capsys):
    before = [2] * len(blas_controls)
    _spy_blas_counts(monkeypatch, blas_controls)
    assert cli.main(["free", "--mass", "1", "--methods", "eriksen"]) == 0
    assert [get() for get, _ in blas_controls] == before
    assert cli.main(["free", "--mass", "-1"]) == 1
    assert [get() for get, _ in blas_controls] == before
    seen = _spy_blas_counts(monkeypatch, blas_controls, RuntimeError("kernel failure"))
    with pytest.raises(RuntimeError):
        cli.main(["free", "--mass", "1", "--methods", "eriksen"])
    assert seen == [[1] * len(blas_controls)]
    assert [get() for get, _ in blas_controls] == before


def test_cli_without_openblas_leaves_threads_alone(blas_controls, monkeypatch, capsys):
    monkeypatch.setattr(cli, "openblas_thread_controls", lambda: [])
    seen = _spy_blas_counts(monkeypatch, blas_controls)
    assert cli.main(["free", "--mass", "1", "--methods", "eriksen"]) == 0
    assert seen == [[2] * len(blas_controls)]
