"""Regenerate ``sections.json``, one sha256 per section of the default reports, and
``values.json``, the same reports' parsed JSON.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The covered reports are the 40 acceptance models of ``tests/conftest.py``
(the 20 free particles as one ``run_comparisons`` batch, the lattices and
synthetic models one by one), one 16-point dim-32 ``fwlab sweep`` and one
dim-128 lattice.  Each report is split into sections: ``context`` (the
report minus its rows), one ``method/<tag>`` per method row, one
``cross/<a>~<b>`` per cross row, and ``csv``.  The sweep writes JSON only, so
its reports have no ``csv`` section, and its ``summary.json`` is one ``json``
section.
A hash per section lets a diff name the rows that moved; before it overwrites the
file, the script prints the sections whose hash moved against it, the list that
``tests/test_golden.py`` reports.

The bytes depend on the BLAS kernels, which OpenBLAS picks by CPU, so
``sections.json`` is keyed on numpy's version and OpenBLAS's config string;
elsewhere the byte test skips.  ``values.json`` holds for every build: its
discrete entries (keys, error types and messages, stop reasons, iteration
counts) must match exactly and its floats within FLOAT_ATOL + FLOAT_RTOL * |x|.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # conftest, run as a script

from conftest import free_specs, lattice_specs, synthetic_specs  # noqa: E402
from fwlab import ModelSpec, Potential, cli, harness  # noqa: E402
from fwlab import report as reporting  # noqa: E402

FIXTURE = Path(__file__).with_name("sections.json")
VALUES = Path(__file__).with_name("values.json")
SUMMARY = "sweep/summary.json"

# How far a float of ``values.json`` may move on another build: OpenBLAS's kernels for other
# CPUs round differently, and the worst float measured under three of them read 0.032 of this.
FLOAT_ATOL, FLOAT_RTOL = 1e-12, 1e-9

SWEEP_BASE = "--n 16 --L 8 --mass 1 --potential gaussian:0.4,2"
SWEEP_VALUES = (0.4, 0.36, 0.32, 0.28, 0.25, 0.22, 0.2, 0.18,
                0.16, 0.14, 0.12, 0.1, 0.08, 0.06, 0.04, 0.02)
LATTICE_128 = ModelSpec(kind="lattice", mass=1.0, n=64, length=25.0,
                        potential=Potential("gaussian", (0.15, 2.0)))


def environment() -> dict:
    """numpy's version and the config string of the OpenBLAS its linalg runs on, or None."""
    config = None
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
        get = lib.scipy_openblas_get_config64_
        get.argtypes, get.restype = [], ctypes.c_char_p
        config = get().decode()
    except (AttributeError, OSError):
        pass
    return {"numpy": np.__version__, "openblas": config}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sections(data: dict, csv: str | None = None) -> dict:
    """The hash of each section of a report's dict, and of its CSV when given."""
    head = {key: value for key, value in data.items() if key not in ("methods", "cross")}
    sections = {"context": _sha(reporting.json_text(head))}
    if csv is not None:
        sections["csv"] = _sha(csv)
    for row in data["methods"]:
        sections[f"method/{row['method']}"] = _sha(reporting.json_text(row))
    for row in data["cross"]:
        sections["cross/" + "~".join(row["method_pair"])] = _sha(reporting.json_text(row))
    return sections


def covered_reports() -> dict:
    """{report name: (its JSON text, its CSV text or None)}; the sweep writes JSON only, and its
    summary is a report of its own."""
    found = {}
    for i, report in enumerate(harness.run_comparisons(free_specs())):
        found[f"acceptance/free/{i:02d}"] = report
    for kind, specs in (("lattice", lattice_specs()), ("synthetic", synthetic_specs())):
        for i, spec in enumerate(specs):
            found[f"acceptance/{kind}/{i:02d}"] = harness.run_comparison(spec)
    found["lattice-128"] = harness.run_comparison(LATTICE_128)
    found = {name: (reporting.report_json(report), reporting.report_csv(report))
             for name, report in found.items()}
    with tempfile.TemporaryDirectory() as out:
        cli.main(["sweep", "--base", SWEEP_BASE, "--param", "g",
                  "--values", ",".join(map(repr, SWEEP_VALUES)), "--out", out])
        for name in [f"report_g{value!r}.json" for value in SWEEP_VALUES] + ["summary.json"]:
            found[f"sweep/{name}"] = Path(out, name).read_text(), None
    return found


def section_hashes(reports: dict) -> dict:
    """{report name: {section: sha256}} of ``covered_reports``; the sweep summary is a report
    of one section."""
    return {name: {"json": _sha(text)} if name == SUMMARY else _sections(json.loads(text), csv)
            for name, (text, csv) in reports.items()}


def report_values(reports: dict) -> dict:
    """{report name: its parsed JSON} of ``covered_reports``."""
    return {name: json.loads(text) for name, (text, _) in reports.items()}


def value_differences(expected, found, where: str = "") -> list[str]:
    """Where ``found`` differs from ``expected``: a float by more than FLOAT_ATOL +
    FLOAT_RTOL * |expected|, and any other entry (a key, type, string, int, bool or null) at all;
    a key one side lacks reads as ``Ellipsis`` there."""
    if isinstance(expected, dict) and isinstance(found, dict):
        return [line for key in sorted(expected.keys() | found.keys())
                for line in value_differences(expected.get(key, ...), found.get(key, ...),
                                              f"{where}/{key}")]
    if isinstance(expected, list) and isinstance(found, list) and len(expected) == len(found):
        return [line for i, (a, b) in enumerate(zip(expected, found))
                for line in value_differences(a, b, f"{where}/{i}")]
    if isinstance(expected, float) and isinstance(found, float):
        same = abs(found - expected) <= FLOAT_ATOL + FLOAT_RTOL * abs(expected)
    else:
        same = type(expected) is type(found) and expected == found
    return [] if same else [f"{where}: {expected!r} -> {found!r}"]


def moved_sections(expected: dict, found: dict) -> list[str]:
    """Sorted ``report: section`` of every section whose hash differs, or that one side lacks."""
    return sorted(f"{name}: {section}" for name in expected.keys() | found.keys()
                  for section in expected.get(name, {}).keys() | found.get(name, {}).keys()
                  if expected.get(name, {}).get(section) != found.get(name, {}).get(section))


def main() -> None:
    reports = covered_reports()
    fixture = {"environment": environment(), "sections": section_hashes(reports)}
    if FIXTURE.exists():
        moved = moved_sections(json.loads(FIXTURE.read_text())["sections"], fixture["sections"])
        print(f"{len(moved)} sections moved against the committed file", *moved, sep="\n")
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(fixture['sections'])} reports)")
    VALUES.write_text(json.dumps(report_values(reports), indent=0, sort_keys=True) + "\n")
    print(f"wrote {VALUES}")


if __name__ == "__main__":
    main()
