import json
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from fwlab import (
    DiagnosticSet,
    Grading,
    ModelSpec,
    Potential,
    ToleranceConfig,
    build_model,
    cli,
    emit_report,
    eriksen_transform,
    eriksen_transform_alt,
    make_beta,
    report_csv,
    report_json,
    run_comparison,
    u_fw_exact,
    weak_field_sqrt,
    weak_field_transform,
    write_matrix,
)
from fwlab import harness
from fwlab.errors import DimensionMismatch, FWLabError
from fwlab.harness import METHOD_TAGS, run_comparisons
from fwlab.models import KIND_EXPLICIT, KIND_FREE, KIND_LATTICE, KIND_SYNTHETIC
from fwlab.report import json_text

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


def test_routes_call_their_module_functions_at_run_time(monkeypatch):
    # a wrapper set in harness's namespace, as a tracer sets one, is the function each route calls
    calls = Counter()
    for name in ("eriksen_stack", "weak_field_stack"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, original=original, name=name, **kwargs:
                            calls.update([name]) or original(*args, **kwargs))
    report = run_comparison(GAUSS_SPEC)
    assert calls == {"eriksen_stack": 1, "weak_field_stack": 1}
    assert report.row("eriksen").diagnostics is not None
    assert report.row("weakfield").diagnostics is not None


# Each one-shot method's single-model function, on (H, grading, decomposition).
SINGLE_MODEL = {
    "eriksen": lambda h, g, d: eriksen_transform(h, g),
    "eriksenalt": lambda h, g, d: eriksen_transform_alt(h, g),
    "exactcase": lambda h, g, d: u_fw_exact(d),
    "weakfield": lambda h, g, d: weak_field_transform(h, weak_field_sqrt(d), g),
}


def test_single_model_functions_match_their_rows(full_suite):
    # a single-model function is its route on a stack of one, so on the one BLAS thread the
    # rows run at, it gives the row's diagnostics bit for bit, or the row's error
    outcomes = Counter()
    for spec, h, g, d in full_suite:
        report = run_comparison(spec)
        for method, alone in SINGLE_MODEL.items():
            row = report.row(method)
            try:
                with harness.single_blas_thread():
                    found = alone(h, g, d).diagnostics, None, None
            except FWLabError as exc:
                found = None, type(exc).__name__, str(exc)
            assert found == (row.diagnostics, row.error_type, row.error), (spec.describe(), method)
            outcomes[row.error_type] += 1
    assert sum(outcomes.values()) == 160 and 0 < outcomes[None] < 160


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
    eps_min = np.sqrt(1.0 + np.linalg.svd(d.odd_part[:4, 4:], compute_uv=False).min() ** 2)
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


def test_timings_are_all_the_opt_in_adds(full_suite):
    # a timed report with each row's wall_time_seconds dropped is the default bytes
    for spec, *_ in full_suite:
        report = run_comparison(spec)
        timed = json.loads(report_json(report, include_timings=True))
        for row in timed["methods"]:
            assert row.pop("wall_time_seconds") >= 0.0
        assert json_text(timed) == report_json(report)


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


@pytest.mark.parametrize("spec, numpy_fields", [
    pytest.param(FREE_SPEC, {"mass": np.float32(1.0)}, id="free"),
    pytest.param(replace(GAUSS_SPEC, seed=3),
                 {"mass": np.float64(1.0), "n": np.int64(16), "length": np.float32(8.0),
                  "seed": np.int64(3)}, id="lattice"),
    pytest.param(ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 0.02), seed=3),
                 {"n": np.int32(6), "seed": np.uint64(3)}, id="synthetic"),
])
def test_numpy_scalars_read_as_python_numbers(spec, numpy_fields):
    # each value is exact in its numpy type, so the reports are the Python numbers' bytes
    tolerances = ToleranceConfig(2.0 ** -20, 5)
    numpy_tolerances = ToleranceConfig(np.float32(2.0 ** -20), np.int64(5))
    numpy_spec = replace(spec, **numpy_fields)
    assert numpy_spec == spec and numpy_tolerances == tolerances
    assert [type(getattr(numpy_spec, name)) for name in numpy_fields] == [
        type(getattr(spec, name)) for name in numpy_fields]
    report = run_comparison(spec, tolerances=tolerances)
    numpy_report = run_comparison(numpy_spec, tolerances=numpy_tolerances)
    assert (report_json(numpy_report), report_csv(numpy_report)) == (report_json(report),
                                                                      report_csv(report))


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


def _strength_sweep(count, n=16):
    """``count`` non-commuting gaussian lattices of dimension 2n, as ``fwlab sweep`` makes them."""
    return [replace(GAUSS_SPEC, n=n, potential=Potential("gaussian", (0.02 + 0.38 * k / 15, 2.0)))
            for k in range(count)]


def _count_stacked_calls(monkeypatch, specs):
    """run_comparisons on ``specs`` with LAPACK calls and problems (slices) counted by phase:
    the batch's build, each method's route and each method's diagnostics step."""
    calls, slices, phase = Counter(), Counter(), ["build"]

    def counted(name, kernel):
        def wrapper(a, *args, **kwargs):
            calls[phase[0], name] += 1
            slices[phase[0], name] += len(a) if np.ndim(a) == 3 else 1
            return kernel(a, *args, **kwargs)
        return wrapper

    def in_phase(name, function):
        def wrapper(*args, **kwargs):
            outer, phase[0] = phase[0], name(*args)
            try:
                return function(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(harness, "_run_method",
                        in_phase(lambda method, batch: method, harness._run_method))
    monkeypatch.setattr(harness, "diagnose",
                        in_phase(lambda *args: phase[0] + " diagnostics", harness.diagnose))
    reports = run_comparisons(specs)
    return calls, slices, [r.row("stepwise").extras["iterations"] for r in reports]


# One call per kernel per phase of a batch, whatever its size.  Weakfield takes two eigh, of
# its root and of K_w; its transform is not unitary off the commuting case, so its logarithm
# stops before the Cayley solve, and exactcase stops at NotCommuting.
STACKED_CALLS = {
    ("build", "eigh"): 1, ("build", "svd"): 1,
    ("eriksen", "solve"): 1, ("eriksen", "svd"): 1, ("eriksenalt", "svd"): 1,
    ("weakfield", "eigh"): 2, ("weakfield diagnostics", "eigvalsh"): 1,
    **{(f"{method} diagnostics", kernel): 1 for method in ("eriksen", "eriksenalt", "stepwise")
       for kernel in ("eigh", "eigvalsh", "solve")},
}


def test_stacked_call_counts_pinned(monkeypatch, open_gate):
    # on one lane, dim-32 batches of 1, 4 and 16 points; the lockstep takes one stacked SVD
    # per step of its longest run, and one SVD problem per step of each run
    open_gate(cores=1, min_dim=harness.CONCURRENCY_MIN_DIM)
    _, one, [steps] = _count_stacked_calls(monkeypatch, _strength_sweep(1))
    assert one == STACKED_CALLS | {("stepwise", "svd"): steps}
    for count in (4, 16):
        calls, slices, steps = _count_stacked_calls(monkeypatch, _strength_sweep(count))
        assert calls == STACKED_CALLS | {("stepwise", "svd"): max(steps)}, count
        assert slices == {key: count * n for key, n in STACKED_CALLS.items()} | {
            ("stepwise", "svd"): sum(steps)}, count


def _failing_batch(tmp_path):
    """Seven dim-32 models, each paired with the rows it fails alone: {method: (type, start)}."""
    n = 16
    grading, beta = Grading(2 * n, n), make_beta(Grading(2 * n, n))

    def matrix(name, h):
        write_matrix(tmp_path / f"{name}.txt", h, grading)
        return ModelSpec(kind=KIND_EXPLICIT, mass=1.0, path=str(tmp_path / f"{name}.txt"))

    # n + 1 positive eigenvalues
    surplus = np.diag(np.r_[np.ones(n), -np.ones(n - 1), 1.0])
    # H = -beta: the positive eigenvectors have X = 0, so the stacked solve raises LinAlgError
    # one pair near -m beta: cos^2 theta = 2.5e-17, and 1 + beta lambda is degenerate
    near = beta.copy()
    near[1, 1], near[n + 1, n + 1] = -1.0, 1.0
    near[0, n] = near[n, 0] = 0.3
    near[1, n + 1] = near[n + 1, 1] = 1e-8
    lattice = replace(GAUSS_SPEC, n=n)
    polar = ("DegenerateFactor", "smallest (sigma / 2)^2 of 1 + beta*lambda")
    closed = ("NotCommuting", "scaled commutator residual")
    weak = ("OutsideValidityDomain", "smallest eigenvalue of the approximate root")
    return [
        (lattice, {"exactcase": closed}),
        (replace(lattice, potential=Potential("zero")), {}),
        (replace(lattice, potential=Potential("gaussian", (2.0, 1.0))), {
            "eriksen": ("SingularOperand", "H has 18 positive eigenvalues, the upper block 16"),
            "eriksenalt": polar, "exactcase": closed, "weakfield": weak}),
        (matrix("surplus", surplus), {
            "eriksen": ("SingularOperand", "H has 17 positive eigenvalues, the upper block 16"),
            "eriksenalt": polar, "weakfield": weak}),
        (matrix("flipped", -beta), {
            "eriksen": ("SingularOperand", "the upper block of the positive eigenvectors"),
            "eriksenalt": polar, "weakfield": weak}),
        (matrix("near", near), {
            "eriksen": ("SingularOperand", "smallest cos^2 theta 2.500e-17"),
            "eriksenalt": polar, "exactcase": closed, "weakfield": weak}),
        (replace(lattice, mass=2.5), {"exactcase": closed}),
    ]


def test_batch_members_fail_alone(tmp_path):
    # one batch whose members fail different gates: each report is the report of its spec
    # alone, and each failing row names the gate the model fails alone
    specs, failures = zip(*_failing_batch(tmp_path))
    batch = run_comparisons(specs)
    for spec, report, failing in zip(specs, batch, failures):
        alone = run_comparison(spec)
        assert (report_json(report), report_csv(report)) == (report_json(alone),
                                                              report_csv(alone))
        assert {row.method: (row.error_type, row.error[:len(failing[row.method][1])])
                for row in report.methods if row.error} == failing


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
    # one stacked call over the batch, here a stack of one
    assert len(operands) == 1
    np.testing.assert_array_equal(operands[0], d.odd_part[None, :6, 6:])


LATTICE_128 = ModelSpec(
    kind=KIND_LATTICE, mass=1.0, n=64, length=25.0,
    potential=Potential("gaussian", (0.15, 2.0)),
)


def _traced_peak(function):
    """Peak traced memory in bytes of a call of ``function``, after one call to warm up."""
    function()
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("specs, bound", [
    # 16 points at dim 32 hold 4 routes' (U, U H U^H) stacks at once: 3.76 MB measured,
    # 2.28 MB before the one-shot routes ran on stacks
    pytest.param(lambda: _strength_sweep(16), 3.9e6, id="sweep-dim32"),
    # 3.82 MB measured, 6.57 MB before
    pytest.param(lambda: [LATTICE_128], 7.2e6, id="lattice-dim128"),
])
def test_working_set(open_gate, specs, bound):
    open_gate(cores=1, min_dim=harness.CONCURRENCY_MIN_DIM)
    specs = specs()
    assert _traced_peak(lambda: run_comparisons(specs)) <= bound


def test_stacked_rows_share_their_task_time(open_gate):
    # a row's wall time runs from the start of its method's task on the batch to the end of
    # the diagnostics, so the rows of one method in one batch agree; none is in the default
    open_gate(cores=1, min_dim=harness.CONCURRENCY_MIN_DIM)
    reports = run_comparisons(_strength_sweep(4))
    for method in METHOD_TAGS:
        times = {report.row(method).wall_time_seconds for report in reports}
        assert len(times) == 1 and min(times) >= 0.0, method
        for report in reports:
            assert "wall_time_seconds" in report_json(report, include_timings=True)
            assert "wall_time_seconds" not in report_json(report)


def _texts(reports):
    return [report_json(r) for r in reports], [report_csv(r) for r in reports]


def test_lanes_write_the_serial_reports(monkeypatch, full_suite, one_blas_thread, open_gate,
                                        lane_counts):
    # the free particles (dim 4) go as one call, in batches of 4 at a threshold of 8
    free = [spec for spec, *_ in full_suite[:20]]
    alone = [spec for spec, *_ in full_suite[20:]] + [LATTICE_128]
    open_gate(min_dim=10 ** 9)
    serial = _texts([run_comparison(spec) for spec in free + alone])
    for cores in (1, 2, 4):
        open_gate(cores=cores, min_dim=8)
        laned = _texts(run_comparisons(free) + [run_comparison(spec) for spec in alone])
        assert laned == serial, cores
    # one comparison alone is two tasks, a lockstep and the other routes; below dim 8 its
    # lanes stay shut
    paired = 1 + sum(grading.dim >= 8 for _, _, grading, _ in full_suite[20:])
    assert lane_counts == [2] * (1 + paired) + [4] + [2] * paired


def test_lanes_repeat_bit_for_bit(one_blas_thread, open_gate, lane_counts):
    # criterion 10 under concurrency, at the real dim-128 threshold
    open_gate(min_dim=harness.CONCURRENCY_MIN_DIM)
    texts = {report_json(run_comparison(LATTICE_128)) for _ in range(3)}
    assert lane_counts == [2, 2, 2]
    assert len(texts) == 1


def _contended(function, items):
    """``function`` of every item on four threads at a 1e-5 s switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(function, items, timeout=60))
    finally:
        sys.setswitchinterval(interval)


def test_lanes_under_contention(open_gate, lane_counts):
    # more threads than cores and a short switch interval: every report is the serial one
    specs = [FREE_SPEC, GAUSS_SPEC,
             ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 0.02), seed=3)] * 2
    open_gate(min_dim=10 ** 9)
    serial = [report_json(run_comparison(spec)) for spec in specs]
    open_gate(min_dim=0)
    assert _contended(lambda spec: report_json(run_comparison(spec)), specs) == serial
    assert lane_counts == [2] * len(specs)


def test_batches_under_contention(open_gate, lane_counts, lockstep_batches):
    # lockstep batches on four lanes each, on more threads than cores: every report is
    # the one of its spec alone, so no outcome of a batch is lost or crossed
    batches = [[replace(GAUSS_SPEC, potential=Potential("gaussian", (g, width)))
                for g in (0.05, 0.1, 0.2)] for width in (0.5, 1.0, 1.5, 2.0)]
    open_gate(min_dim=10 ** 9)
    serial = [[report_json(run_comparison(spec)) for spec in batch] for batch in batches]
    # a threshold of 48 makes lane_batch_size(32) = 3: one lockstep and three one-shot tasks
    open_gate(cores=4, min_dim=48)
    lockstep_batches.clear()
    laned = _contended(lambda batch: [report_json(r) for r in run_comparisons(batch)], batches)
    assert lane_counts == [4] * len(batches)
    assert lockstep_batches == [3] * len(batches)
    assert laned == serial


def test_routes_wait_for_their_batch_preparation(monkeypatch, open_gate, lane_counts):
    # a slow batch preparation on four lanes: no one-shot route reads a batch before it is
    # prepared, and every report is the serial one
    specs = _strength_sweep(8)
    open_gate(min_dim=10 ** 9)
    serial = _texts(run_comparisons(specs))
    prepared, started = [], []  # the prepared batches' spectra, kept alive
    of, run_method = harness.ModelStack.of, harness._run_method

    def slow(ds, h=None):
        time.sleep(0.02)
        parts = of(ds, h)
        prepared.append(h)
        return parts

    def spy(method, batch):
        started.append((method, any(h is batch.h for h in prepared)))
        return run_method(method, batch)

    monkeypatch.setattr(harness.ModelStack, "of", slow)
    monkeypatch.setattr(harness, "_run_method", spy)
    # a threshold of 64 makes lane_batch_size(32) = 4: two batches of five tasks
    open_gate(cores=4, min_dim=64)
    assert _texts(run_comparisons(specs)) == serial
    assert lane_counts == [4]
    assert len(started) == 10
    assert all(ready for method, ready in started if method != "stepwise")
    # on one lane each lockstep, its batch's first task, starts before the preparation
    started.clear()
    open_gate(cores=1, min_dim=64)
    assert _texts(run_comparisons(specs)) == serial
    assert [ready for method, ready in started if method == "stepwise"] == [False, False]


def test_batch_of_mixed_shapes(monkeypatch):
    specs = [FREE_SPEC, GAUSS_SPEC]
    with pytest.raises(DimensionMismatch):
        run_comparisons(specs)
    # in batches of one too, every model needs the first model's shape, whatever the methods
    monkeypatch.setattr(harness, "CONCURRENCY_MIN_DIM", 4)
    with pytest.raises(DimensionMismatch):
        run_comparisons(specs)
    with pytest.raises(DimensionMismatch):
        run_comparisons(specs, ("eriksen", "weakfield"))


def test_weak_field_root_whose_error_overflows_leaves():
    # at m = 1e100 the root's products reach m^2 ||E||, and its error against |H| overflows
    report = run_comparison(ModelSpec(kind=KIND_SYNTHETIC, mass=1e100, n=4, poly=(0.3, 0.1),
                                      seed=1))
    row = report.row("weakfield")
    assert (row.error_type, row.error) == (
        "OutsideValidityDomain", "the approximate root's error against |H| overflows")
    assert row.extras == {}
    assert [r.method for r in report.methods if r.error is not None] == ["weakfield"]


def _refusing_pool(max_workers):
    raise AssertionError("the lane pool must not be opened")


@pytest.mark.parametrize("gate, methods", [
    pytest.param({"blas_threads": None}, METHOD_TAGS, id="no-openblas"),
    pytest.param({"cores": 1}, METHOD_TAGS, id="one-core"),
    pytest.param({"min_dim": 33}, METHOD_TAGS, id="below-threshold"),
    # one model with one kind of task is a single task
    pytest.param({}, ("stepwise",), id="stepwise-alone"),
    pytest.param({}, ("eriksen", "weakfield"), id="no-stepwise"),
])
def test_lane_gate_keeps_the_serial_loop(monkeypatch, open_gate, gate, methods):
    open_gate(**gate)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _refusing_pool)
    report = run_comparison(GAUSS_SPEC, methods)
    assert [row.method for row in report.methods] == [m for m in METHOD_TAGS if m in methods]
    # the same gate facts with all conditions met do open the pool
    open_gate()
    with pytest.raises(AssertionError, match="lane pool"):
        run_comparison(GAUSS_SPEC)


def test_lane_gate_opens_at_a_blas_entry_count_of_2(monkeypatch, open_gate):
    # the comparison pins BLAS to one thread itself, so the count it finds keeps no lane shut
    open_gate(blas_threads=2)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _refusing_pool)
    with pytest.raises(AssertionError, match="lane pool"):
        run_comparison(GAUSS_SPEC)


def _strengths(count):
    return [replace(GAUSS_SPEC, potential=Potential("gaussian", (0.02 * (k + 1), 1.0)))
            for k in range(count)]


@pytest.mark.parametrize("route", ["eriksen_stack", "stepwise_lockstep"],
                         ids=["one-shot-task", "stepwise-task"])
def test_lane_failure_propagates_and_joins(monkeypatch, open_gate, lane_counts, route):
    # eight batches of one on four lanes; the route fails the first time it is called
    open_gate(cores=4, min_dim=32)
    calls = []
    original = getattr(harness, route)

    def broken(*args, **kwargs):
        calls.append(route)
        if len(calls) == 1:
            raise RuntimeError("kernel failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, route, broken)
    built = []
    model = harness._model
    monkeypatch.setattr(harness, "_model", lambda spec: built.append(spec) or model(spec))
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="kernel failure"):
        run_comparisons(_strengths(8))
    assert lane_counts == [4]
    assert threading.active_count() == baseline
    # the other lanes stop after their current task instead of draining the stream
    assert len(built) < 8


def _spy_open_models(monkeypatch):
    """The most models at any time that were built and have no report yet."""
    guard = threading.Lock()
    state = {"open": 0, "most": 0}
    model, report = harness._model, harness.assemble_report

    def built(spec):
        with guard:
            state["open"] += 1
            state["most"] = max(state["most"], state["open"])
        return model(spec)

    def reported(*args):
        with guard:
            state["open"] -= 1
        return report(*args)

    monkeypatch.setattr(harness, "_model", built)
    monkeypatch.setattr(harness, "assemble_report", reported)
    return state


@pytest.mark.parametrize("min_dim, size", [(32, 1), (40, 2)], ids=["batches-of-1", "batches-of-2"])
@pytest.mark.parametrize("cores", [1, 2, 4])
def test_lanes_build_batches_as_they_go(monkeypatch, open_gate, lane_counts, min_dim, size,
                                        cores):
    # for each method list, at most one batch beyond those on the lanes has its models built,
    # and each batch's reports are built once, whichever of its tasks or its preparation ends
    # last; every list makes at least 4 tasks
    specs = _strengths(8)
    open_gate(min_dim=10 ** 9)
    alone = {methods: [_texts([run_comparison(spec, methods)]) for spec in specs]
             for methods in (METHOD_TAGS, ("stepwise",), ("eriksen", "weakfield"),
                             ("exactcase", "stepwise"))}
    open_gate(cores=cores, min_dim=min_dim)
    state = _spy_open_models(monkeypatch)
    threads = set()
    run_method = harness._run_method
    monkeypatch.setattr(harness, "_run_method",
                        lambda *args, **kwargs: threads.add(threading.get_ident())
                        or run_method(*args, **kwargs))
    for methods, texts in alone.items():
        threads.clear()
        lane_counts.clear()
        state["most"] = 0
        assert [_texts([report]) for report in run_comparisons(specs, methods)] == texts, methods
        assert lane_counts == ([] if cores == 1 else [cores])
        assert len(threads) <= cores
        # the calling thread is one of the lanes: with every method the helpers leave it tasks,
        # but four lockstep tasks on four lanes may all go to the helpers
        assert methods != METHOD_TAGS or threading.get_ident() in threads
        assert state["open"] == 0
        assert state["most"] <= size * (cores + 1)


def test_later_build_error_propagates_and_joins(monkeypatch, open_gate, lane_counts):
    # the fifth of seven batches of one has a bad mass; no later batch is built
    open_gate(cores=2, min_dim=32)
    specs = _strengths(7)
    specs[4] = replace(specs[4], mass=-1.0)
    built = []
    model = harness._model
    monkeypatch.setattr(harness, "_model", lambda spec: built.append(spec) or model(spec))
    baseline = threading.active_count()
    with pytest.raises(ValueError, match="mass"):
        run_comparisons(specs)
    assert lane_counts == [2]
    assert built == specs[:5]
    assert threading.active_count() == baseline


@pytest.fixture
def blas_controls():
    """[numpy's OpenBLAS controls], set to 2 threads and restored afterwards."""
    controls = [harness.numpy_openblas()]
    if controls == [None]:
        pytest.skip("numpy does not run on OpenBLAS")
    original = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, original):
        set_(count)


@pytest.fixture
def one_blas_thread(blas_controls):
    """numpy's OpenBLAS on one thread, as under OPENBLAS_NUM_THREADS=1."""
    for _, set_ in blas_controls:
        set_(1)
    return blas_controls


def _blas_counts(controls):
    return [get() for get, _ in controls]


def _spy_blas_counts(monkeypatch, controls, error=None):
    """Record the BLAS thread counts each time a comparison runs a method on a batch."""
    seen = []
    run_method = harness._run_method

    def spy(*args, **kwargs):
        seen.append(_blas_counts(controls))
        if error is not None:
            raise error
        return run_method(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_method", spy)
    return seen


def test_cli_runs_on_one_blas_thread(blas_controls, monkeypatch, capsys):
    # through run_comparisons, which pins BLAS for the CLI as for any caller
    seen = _spy_blas_counts(monkeypatch, blas_controls)
    assert cli.main(["free", "--mass", "1", "--methods", "eriksen"]) == 0
    assert seen == [[1] * len(blas_controls)]


def test_comparisons_run_on_one_blas_thread_and_restore_it(blas_controls, monkeypatch):
    before = [2] * len(blas_controls)
    seen = _spy_blas_counts(monkeypatch, blas_controls)
    run_comparison(FREE_SPEC, ("eriksen",))
    assert seen == [[1] * len(blas_controls)]
    assert _blas_counts(blas_controls) == before
    with pytest.raises(ValueError, match="mass"):
        run_comparison(replace(FREE_SPEC, mass=-1.0))
    assert _blas_counts(blas_controls) == before
    seen = _spy_blas_counts(monkeypatch, blas_controls, RuntimeError("kernel failure"))
    with pytest.raises(RuntimeError):
        run_comparison(FREE_SPEC, ("eriksen",))
    assert seen == [[1] * len(blas_controls)]
    assert _blas_counts(blas_controls) == before


def test_comparisons_without_openblas_leave_threads_alone(blas_controls, monkeypatch):
    monkeypatch.setattr(harness, "numpy_openblas", lambda: None)
    seen = _spy_blas_counts(monkeypatch, blas_controls)
    run_comparison(FREE_SPEC, ("eriksen",))
    assert seen == [[2] * len(blas_controls)]
    with harness.single_blas_thread() as pinned:
        assert pinned is False


def test_reports_do_not_depend_on_the_callers_blas_count(blas_controls):
    # criterion 10 across callers: a library call at two BLAS threads gives the CLI's bytes
    texts = []
    for count in (2, 1):
        for _, set_ in blas_controls:
            set_(count)
        report = run_comparison(LATTICE_128)
        texts.append((report_json(report), report_csv(report)))
        assert _blas_counts(blas_controls) == [count] * len(blas_controls)
    assert texts[0] == texts[1]


def test_overlapping_pins_restore_at_the_last_exit(blas_controls):
    # two library calls on other threads may enter A, B and leave A, B
    first, second = harness.single_blas_thread(), harness.single_blas_thread()
    entered = [first.__enter__(), second.__enter__()]
    assert _blas_counts(blas_controls) == [1] * len(blas_controls)
    first.__exit__(None, None, None)
    assert _blas_counts(blas_controls) == [1] * len(blas_controls)
    second.__exit__(None, None, None)
    assert _blas_counts(blas_controls) == [2] * len(blas_controls)
    assert entered == [True, True]
