"""Output checks for benchmark operations, at the acceptance-suite bounds.

Every operation's report is checked against the bounds pinned in
tests/test_acceptance.py, none loosened:

- eriksen and eriksenalt: unitarity, adjoint residual, block-diagonality and
  spectrum drift <= 1e-10 (criteria 1 and 7), and their transforms agree to
  1e-10 (criterion 2);
- stepwise: spectrum drift <= 1e-10 (criterion 7);
- commuting models: exactcase matches eriksen to 1e-10 with spectrum drift
  <= 1e-10 (criteria 3 and 7), and the weak-field root collapses onto the
  closed form to 1e-12 (criterion 6);
- the error records are exactly the expected set: exactcase NotCommuting on
  lattices, none on commuting models.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import copy
import json
import os

BOUND = 1e-10
COLLAPSE_BOUND = 1e-12
GAP_RTOL = 1e-8

METHODS = ("eriksen", "eriksenalt", "exactcase", "stepwise", "weakfield")
ONE_SHOT_FIELDS = (
    "unitarity_residual",
    "eriksen_condition_residual",
    "block_diagonality",
    "spectrum_drift",
)


def _within(value, bound) -> bool:
    # NaN, None and non-numbers fail.
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value <= bound


def report_problems(report: dict, *, commuting: bool, dim: int,
                    gap: float | None = None) -> list[str]:
    """Problems of one comparison report.

    ``gap`` is the benchmark's own min |eigenvalue| of H, compared with the
    report's ``context.spectral_gap`` when given.
    """
    problems = []
    try:
        order = [row["method"] for row in report["methods"]]
        if order != list(METHODS):
            problems.append(f"method rows {order}, expected {list(METHODS)}")
        rows = {row["method"]: row for row in report["methods"]}
        errors = {(method, row["error_type"]) for method, row in rows.items()
                  if row["error"] is not None or row["error_type"] is not None}
        expected = set() if commuting else {("exactcase", "NotCommuting")}
        if errors != expected:
            problems.append(f"error records {sorted(errors)}, expected {sorted(expected)}")

        def bounded(method, fields, bound=BOUND):
            diagnostics = rows[method]["diagnostics"] or {}
            for name in fields:
                if not _within(diagnostics.get(name), bound):
                    problems.append(f"{method}.{name} = {diagnostics.get(name)!r} > {bound}")

        cross = {tuple(row["method_pair"]): row for row in report["cross"]}

        def agree(pair):
            value = cross.get(pair, {}).get("transform_disagreement")
            if not _within(value, BOUND):
                problems.append(f"{pair[0]}/{pair[1]} transform disagreement {value!r} > {BOUND}")

        for method in ("eriksen", "eriksenalt"):
            bounded(method, ONE_SHOT_FIELDS)
        agree(("eriksen", "eriksenalt"))
        bounded("stepwise", ("spectrum_drift",))
        if commuting:
            bounded("exactcase", ("spectrum_drift",))
            agree(("eriksen", "exactcase"))
            collapse = rows["weakfield"]["extras"].get("sqrt_relative_error")
            if not _within(collapse, COLLAPSE_BOUND):
                problems.append(f"weakfield sqrt_relative_error {collapse!r} > {COLLAPSE_BOUND}")

        context = report["context"]
        if context["dim"] != dim:
            problems.append(f"context.dim {context['dim']!r}, expected {dim}")
        if gap is not None and not _within(abs(context["spectral_gap"] - gap), GAP_RTOL * gap):
            problems.append(f"context.spectral_gap {context['spectral_gap']!r}, expected {gap!r}")
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def sweep_problems(code: int, out_dir: str, values, dim: int) -> list[str]:
    """Problems of one ``fwlab sweep`` call over ``values`` into ``out_dir``.

    Lattice sweeps always carry exactcase NotCommuting records, so the
    expected exit code is 2, with one report per strength plus summary.json.
    """
    problems = [] if code == 2 else [f"exit code {code}, expected 2"]
    names = {f"report_g{value!r}.json" for value in values}
    present = set(os.listdir(out_dir))
    if present != names | {"summary.json"}:
        return problems + [f"output files {sorted(present)}"]
    reports = [_load(os.path.join(out_dir, f"report_g{value!r}.json")) for value in values]
    for value, report in zip(values, reports):
        problems += [f"g={value!r}: {problem}"
                     for problem in report_problems(report, commuting=False, dim=dim)]
    summary = _load(os.path.join(out_dir, "summary.json"))
    try:
        rows = [{row["method"]: row for row in report["methods"]} for report in reports]
        expected = {
            "values": list(values),
            "weakfield": [r["weakfield"]["extras"]["sqrt_relative_error"] for r in rows],
            "stepwise": [r["stepwise"]["extras"]["stop_reason"] for r in rows],
        }
        found = {
            "values": summary["values"],
            "weakfield": summary["weakfield"]["sqrt_relative_error"],
            "stepwise": summary["stepwise"]["stop_reasons"],
        }
        for key in expected:
            if found[key] != expected[key]:
                problems.append(f"summary {key} {found[key]!r} disagrees with the reports")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed sweep output: {type(exc).__name__}: {exc}")
    return problems


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def self_test(report: dict, expect: dict):
    """Show that the checker passes ``report`` and fails tampered copies.

    Raises AssertionError, a defect of the benchmark, not of the program.
    """
    problems = report_problems(report, **expect)
    if problems:
        raise AssertionError(f"checker rejects a good report: {problems}")

    def tampered(edit):
        changed = copy.deepcopy(report)
        edit(changed)
        return changed

    def rows(r):
        return {row["method"]: row for row in r["methods"]}

    def worse_unitarity(r):
        rows(r)["eriksen"]["diagnostics"]["unitarity_residual"] = 1e-3

    def extra_error(r):
        row = rows(r)["weakfield"]
        row["error"], row["error_type"] = "approximate root is not positive definite", \
            "OutsideValidityDomain"

    def nan_disagreement(r):
        for row in r["cross"]:
            row["transform_disagreement"] = float("nan")

    for edit in (worse_unitarity, extra_error, nan_disagreement):
        if not report_problems(tampered(edit), **expect):
            raise AssertionError(f"checker accepts a report after {edit.__name__}")
