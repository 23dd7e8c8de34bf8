import json
from dataclasses import replace

import pytest

from fwlab import (ModelSpec, Potential, build_free_particle, cli, harness, report_json,
                   run_comparison, write_matrix)
from fwlab.cli import main
from fwlab.models import KIND_LATTICE


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def test_free_report_to_stdout(capsys):
    assert run_cli(["free", "--mass", "1", "--p", "0,0,0.75"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["model"] == "free(mass=1.0, p=0.0,0.0,0.75)"
    assert [row["method"] for row in parsed["methods"]] == [
        "eriksen", "eriksenalt", "exactcase", "stepwise", "weakfield",
    ]
    assert all(row["error"] is None for row in parsed["methods"])


def test_csv_format(capsys):
    assert run_cli([
        "free", "--mass", "1", "--p", "0,0,0.1", "--methods", "eriksen",
        "--format", "csv",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method,metric,value\n")
    assert out.count("\n") == 6


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli([
        "free", "--mass", "1", "--methods", "eriksen,exactcase",
        "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out == ""
    parsed = json.loads(out.read_text())
    assert len(parsed["methods"]) == 2


def test_method_error_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli([
        "lattice", "--n", "8", "--L", "4", "--mass", "1",
        "--potential", "gaussian:0.1,1.0", "--methods", "eriksen,exactcase",
        "--out", str(out),
    ])
    assert code == 2
    parsed = json.loads(out.read_text())
    errors = {row["method"]: row["error_type"] for row in parsed["methods"] if row["error"]}
    assert errors == {"exactcase": "NotCommuting"}


def test_matrix_subcommand(tmp_path):
    h, g, _ = build_free_particle(1.0, (0.0, 0.0, 0.5))
    path = tmp_path / "h.txt"
    write_matrix(path, h, g)
    out = tmp_path / "report.json"
    assert run_cli([
        "matrix", "--file", str(path), "--mass", "1",
        "--methods", "eriksen", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["context"]["dim"] == 4


def test_usage_errors_exit_one(capsys, tmp_path):
    report = tmp_path / "report.json"
    cases = (
        [],
        ["free"],
        ["free", "--mass", "-1"],
        ["free", "--mass", "1", "--p", "1,2"],
        ["free", "--mass", "1", "--p", "a,b,c"],
        ["free", "--mass", "1", "--methods", "nosuch"],
        ["lattice", "--n", "3", "--L", "4", "--mass", "1", "--potential", "zero"],
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "nosuch:1"],
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:nan,1"],
        ["lattice", "--n", "8", "--L", "4", "--mass", "inf", "--potential", "zero"],
        # stopping rules that cannot work
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:0.2,1",
         "--tol", "inf"],
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:0.2,1",
         "--tol", "0"],
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:0.2,1",
         "--max-iter", "-2"],
        # a stopping rule that no requested method reads is still checked
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:0.2,1",
         "--tol", "inf", "--methods", "eriksen", "--out", str(report)],
        ["lattice", "--n", "8", "--L", "4", "--mass", "1", "--potential", "gaussian:0.2,1",
         "--tol", "nan", "--methods", "eriksen", "--out", str(report)],
        ["nosuchcommand"],
    )
    for argv in cases:
        assert run_cli(argv) == 1, argv
        capsys.readouterr()
    assert not report.exists()
    # a sweep that cannot run leaves no output directory behind
    base = "--n 8 --L 6 --mass 1 --potential constant:0.2"
    for name, base_args, values in (
        ("nan", base, "nan"),
        ("cap", base + " --max-iter -2", "0.2"),
        ("zero", "--n 8 --L 6 --mass 1 --potential zero", "0.2"),
        ("method", base + " --methods nosuch", "0.2"),
    ):
        out_dir = tmp_path / f"sweep-{name}"
        argv = ["sweep", "--base", base_args, "--param", "g", "--values", values,
                "--out", str(out_dir)]
        assert run_cli(argv) == 1, argv
        capsys.readouterr()
        assert not out_dir.exists(), argv


def test_sweep_rejects_repeated_strengths(tmp_path, monkeypatch, capsys):
    # 0.1 and 0.10 would write one report_g0.1.json over the other
    def refused(*args):
        raise AssertionError("no comparison may run")

    monkeypatch.setattr(cli, "run_comparisons", refused)
    out_dir = tmp_path / "sweep"
    assert run_cli(["sweep", "--base", "--n 8 --L 6 --mass 1 --potential constant:0.2",
                    "--param", "g", "--values", "0.1,0.10,0.05", "--out", str(out_dir)]) == 1
    assert "--values repeats 0.1;" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_matrix_file_exit_one(tmp_path, capsys):
    assert run_cli([
        "matrix", "--file", str(tmp_path / "absent.txt"), "--mass", "1",
    ]) == 1
    assert "error" in capsys.readouterr().err


def test_help_mentions_methods(capsys):
    assert run_cli(["--help"]) == 0
    top = capsys.readouterr().out
    assert "free" in top and "lattice" in top and "sweep" in top
    assert run_cli(["free", "--help"]) == 0
    method_help = capsys.readouterr().out
    for tag in ("eriksen", "eriksenalt", "exactcase", "stepwise", "weakfield"):
        assert tag in method_help


def test_sweep_outputs(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = run_cli([
        "sweep",
        "--base", "--n 16 --L 12 --mass 1 --potential gaussian:0.2,3.0 "
                  "--methods weakfield,stepwise",
        "--param", "g",
        "--values", "0.2,0.1",
        "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "report_g0.2.json").exists()
    assert (out_dir / "report_g0.1.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["param"] == "g"
    assert summary["values"] == [0.2, 0.1]
    errs = summary["weakfield"]["sqrt_relative_error"]
    assert errs[1] < errs[0]
    assert len(summary["weakfield"]["orders"]) == 1
    assert summary["stepwise"]["stop_reasons"] == ["tolerance_reached"] * 2
    assert summary["stepwise"]["stagnation_values"] == []


@pytest.mark.parametrize("max_iter, stop_reason", [
    (50, "tolerance_reached"),
    (1, "max_iterations"),
])
def test_sweep_stepwise_orders_skip_converged_points(tmp_path, max_iter, stop_reason):
    out_dir = tmp_path / "sweep"
    code = run_cli([
        "sweep",
        "--base", "--n 16 --L 12 --mass 1 --potential gaussian:0.2,3.0 "
                  f"--methods stepwise --max-iter {max_iter}",
        "--param", "g",
        "--values", "0.2,0.1,0.05",
        "--out", str(out_dir),
    ])
    assert code == 0
    stepwise = json.loads((out_dir / "summary.json").read_text())["stepwise"]
    assert stepwise["stop_reasons"] == [stop_reason] * 3
    # block diagonality just under --tol says nothing about the order
    converged = stop_reason == "tolerance_reached"
    assert [order is None for order in stepwise["orders"]] == [converged] * 2


def test_sweep_flags_stagnation(tmp_path):
    out_dir = tmp_path / "sweep"
    code = run_cli([
        "sweep",
        "--base", "--n 32 --L 8 --mass 1 --potential gaussian:0.2,1.0 "
                  "--methods stepwise",
        "--param", "g",
        "--values", "0.2,0.1",
        "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["stepwise"]["stop_reasons"] == ["stagnation"] * 2
    assert summary["stepwise"]["stagnation_values"] == [0.2, 0.1]


def test_sweep_usage_gates(tmp_path, capsys):
    base = "--n 16 --L 8 --mass 1 --potential gaussian:0.2,1.0"
    assert run_cli([
        "sweep", "--base", base, "--param", "g",
        "--values", "x", "--out", str(tmp_path / "a"),
    ]) == 1
    capsys.readouterr()
    assert run_cli([
        "sweep", "--base", "--n 16 --L 8 --mass 1 --potential zero",
        "--param", "g", "--values", "0.1", "--out", str(tmp_path / "b"),
    ]) == 1
    capsys.readouterr()


def test_sweep_base_rejects_output_options(tmp_path, capsys):
    # --base takes lattice arguments and --methods; the sweep always writes JSON into --out
    for option in ("--format csv", "--out report.json"):
        out_dir = tmp_path / "sweep"
        assert run_cli([
            "sweep", "--base", f"--n 8 --L 6 --mass 1 --potential constant:0.2 {option}",
            "--param", "g", "--values", "0.2", "--out", str(out_dir),
        ]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("values", ["0.2,0", "0.2,-0.1"])
def test_sweep_order_needs_strengths_of_one_sign(tmp_path, values):
    out_dir = tmp_path / "sweep"
    code = run_cli([
        "sweep",
        "--base", "--n 16 --L 12 --mass 1 --potential gaussian:0.2,3.0",
        "--param", "g",
        "--values", values,
        "--out", str(out_dir),
    ])
    assert code == 2   # exactcase records NotCommuting at g = 0.2
    assert len(list(out_dir.glob("report_g*.json"))) == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["weakfield"]["orders"] == [None]
    assert summary["stepwise"]["orders"] == [None]


def test_sweep_pool_only_from_dim_128(tmp_path, open_gate, lane_counts, lockstep_batches):
    # the real threshold: one point opens the lanes from dim 128 (dim 124 stays serial) and
    # two points from dim 124, in one lockstep batch there and a batch each at dim 128
    open_gate(min_dim=harness.CONCURRENCY_MIN_DIM)
    for values in ("0.2", "0.2,0.1"):
        for n in (62, 64):
            assert run_cli([
                "sweep", "--base", f"--n {n} --L 6 --mass 1 --potential constant:0.2 "
                                   "--methods eriksen,stepwise",
                "--param", "g", "--values", values, "--out", str(tmp_path / f"{n}-{values}"),
            ]) == 0
    assert lane_counts == [2, 2, 2]
    assert lockstep_batches == [1, 1, 2, 1, 1]


SWEEP_VALUES = tuple(round(0.4 - 0.022 * k, 3) for k in range(16))


def _sweep_files(tmp_path, n, values=SWEEP_VALUES):
    out_dir = tmp_path / f"sweep-n{n}-{len(values)}"
    # exit code 2: exactcase records NotCommuting on every Gaussian lattice
    assert run_cli(["sweep", "--base", f"--n {n} --L {n / 2} --mass 1 "
                    "--potential gaussian:0.2,1.5", "--param", "g",
                    "--values", ",".join(map(repr, values)), "--out", str(out_dir)]) == 2
    return {path.name: path.read_text() for path in out_dir.iterdir()}


@pytest.mark.parametrize("n", [8, 16], ids=["dim16", "dim32"])
@pytest.mark.parametrize("lanes", ["open", "shut"])
def test_sweep_batches_write_the_per_point_reports(tmp_path, open_gate, lane_counts,
                                                   lockstep_batches, n, lanes):
    # one batch of all 16 points either way; a CONCURRENCY_MIN_DIM of 4 * dim opens its lanes
    open_gate(min_dim=4 * 2 * n if lanes == "open" else 10 ** 9)
    written = _sweep_files(tmp_path, n)
    assert lane_counts == ([2] if lanes == "open" else [])
    assert lockstep_batches == [16]
    base = ModelSpec(kind=KIND_LATTICE, mass=1.0, n=n, length=n / 2,
                     potential=Potential("gaussian", (0.2, 1.5)))
    reports = [run_comparison(replace(base, potential=Potential("gaussian", (value, 1.5))))
               for value in SWEEP_VALUES]
    expected = {f"report_g{value!r}.json": report_json(report)
                for value, report in zip(SWEEP_VALUES, reports)}
    expected["summary.json"] = json.dumps(cli._sweep_summary(SWEEP_VALUES, reports),
                                          sort_keys=True, indent=2) + "\n"
    assert written == expected


@pytest.mark.parametrize("n, count, lanes", [
    pytest.param(16, 16, [2], id="dim32-16-points"),
    pytest.param(16, 2, [], id="dim32-2-points"),
    pytest.param(16, 1, [], id="dim32-1-point"),
    pytest.param(64, 2, [2], id="dim128-2-points"),
])
def test_sweep_lane_gate(tmp_path, open_gate, lane_counts, lockstep_batches, n, count, lanes):
    # the real CONCURRENCY_MIN_DIM: count * dim^2 must reach 128^2, so 16 points at dim 32
    open_gate(min_dim=harness.CONCURRENCY_MIN_DIM)
    _sweep_files(tmp_path, n, SWEEP_VALUES[:count])
    assert lane_counts == lanes
    assert lockstep_batches == ([count] if n == 16 else [1] * count)


def test_sweep_lanes_write_the_serial_files(tmp_path, open_gate, lane_counts):
    # eight dim-128 points, a batch each, on 1, 2 and 4 lanes: the same bytes
    written = []
    for cores in (1, 2, 4):
        open_gate(cores=cores, min_dim=harness.CONCURRENCY_MIN_DIM)
        out_dir = tmp_path / f"cores{cores}"
        assert run_cli(["sweep", "--base", "--n 64 --L 25 --mass 1 --potential gaussian:0.1,2",
                        "--param", "g", "--values", ",".join(map(repr, SWEEP_VALUES[::2])),
                        "--out", str(out_dir)]) == 2
        written.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    assert lane_counts == [2, 4]
    assert len(written[0]) == 9
    assert written[1] == written[0] and written[2] == written[0]
