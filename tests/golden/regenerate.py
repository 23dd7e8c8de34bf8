"""Regenerate ``sections.json``: one sha256 per section of the default reports.

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
A hash per section lets a diff name the rows that moved.

The bytes depend on the BLAS kernels, which OpenBLAS picks by CPU, so the
file is keyed on numpy's version and OpenBLAS's config string; elsewhere
``tests/test_golden.py`` skips.
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


def _report_sections(report) -> dict:
    return _sections(json.loads(reporting.report_json(report)), reporting.report_csv(report))


def section_hashes() -> dict:
    """{report name: {section: sha256}}; the sweep summary is a report of one section."""
    found = {}
    for i, report in enumerate(harness.run_comparisons(free_specs())):
        found[f"acceptance/free/{i:02d}"] = _report_sections(report)
    for kind, specs in (("lattice", lattice_specs()), ("synthetic", synthetic_specs())):
        for i, spec in enumerate(specs):
            found[f"acceptance/{kind}/{i:02d}"] = _report_sections(harness.run_comparison(spec))
    found["lattice-128"] = _report_sections(harness.run_comparison(LATTICE_128))
    with tempfile.TemporaryDirectory() as out:
        cli.main(["sweep", "--base", SWEEP_BASE, "--param", "g",
                  "--values", ",".join(map(repr, SWEEP_VALUES)), "--out", out])
        for value in SWEEP_VALUES:
            name = f"report_g{value!r}.json"
            found[f"sweep/{name}"] = _sections(json.loads(Path(out, name).read_text()))
        found["sweep/summary.json"] = {"json": _sha(Path(out, "summary.json").read_text())}
    return found


def main() -> None:
    fixture = {"environment": environment(), "sections": section_hashes()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(fixture['sections'])} reports)")


if __name__ == "__main__":
    main()
