"""The LAPACK decompositions a comparison runs, counted as calls and as matrices (slices) and
pinned in a table, so that a change which adds or removes one edits the table.

The counts are deterministic: each route takes a fixed set of stacked calls per batch, and
the stepwise lockstep one stacked SVD per step, read here off the rows' ``iterations``.
"""

import json
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import SINGLE_MODEL
from fwlab import build_model, cli, run_comparison
from fwlab.errors import FWLabError
from fwlab.harness import METHOD_STEPWISE, METHOD_TAGS
from golden.regenerate import LATTICE_128, SWEEP_BASE, SWEEP_VALUES

KERNELS = ("eigh", "eigvalsh", "solve", "svd")

# Decompositions of one comparison on the dim-128 lattice LATTICE_128, per method run alone:
# (eigh, eigvalsh, solve, svd).  Each counts H's one eigh, and each diagnosed transform one
# eigvalsh (the spectrum drift) and, when unitary enough for a logarithm, the Cayley solve and
# eigh; stepwise adds one SVD per step.
PER_METHOD = {
    "eriksen": (2, 1, 2, 1),      # + the solve for X^(-H) Y^H and the SVD of its angles
    "eriksenalt": (2, 1, 1, 1),   # + the SVD of 1 + beta lambda
    "exactcase": (1, 0, 0, 0),    # NotCommuting before a decomposition of its own
    "stepwise": (2, 1, 1, 0),
    "weakfield": (3, 1, 0, 1),    # + the odd blocks' SVD and the eighs of R and K_w; no log
}

# The golden 16-point dim-32 sweep, one batch: (calls, slices) of each kernel but the SVD,
# which takes 3 one-shot calls over 16 models and one call per lockstep step.
SWEEP = {"eigh": (6, 96), "eigvalsh": (4, 64), "solve": (4, 64)}


@pytest.fixture
def decompositions(monkeypatch):
    """Counter of (kernel, "calls") and (kernel, "slices") over ``np.linalg``'s KERNELS."""
    counts, lock = Counter(), threading.Lock()
    for name in KERNELS:
        def counted(a, *args, kernel=getattr(np.linalg, name), name=name, **kwargs):
            with lock:
                counts[name, "calls"] += 1
                counts[name, "slices"] += int(np.prod(np.shape(a)[:-2]))
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _calls(counts):
    return tuple(counts[name, "calls"] for name in KERNELS)


def _steps(report):
    return report.row(METHOD_STEPWISE).extras["iterations"]


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_decompositions_per_method(decompositions, method):
    report = run_comparison(LATTICE_128, (method,))
    steps = _steps(report) if method == METHOD_STEPWISE else 0
    expected = np.add(PER_METHOD[method], (0, 0, 0, steps))
    assert _calls(decompositions) == tuple(expected)
    assert all(decompositions[name, "slices"] == decompositions[name, "calls"] for name in KERNELS)


def test_all_methods_share_the_eigh_of_h(decompositions):
    report = run_comparison(LATTICE_128)
    alone = np.sum(list(PER_METHOD.values()), axis=0) - (len(PER_METHOD) - 1, 0, 0, 0)
    assert _calls(decompositions) == tuple(alone + (0, 0, 0, _steps(report)))
    assert _calls(decompositions) == (6, 4, 4, 3 + _steps(report))


def test_decompositions_of_a_sweep_batch(decompositions, tmp_path):
    cli.main(["sweep", "--base", SWEEP_BASE, "--param", "g",
              "--values", ",".join(map(repr, SWEEP_VALUES)), "--out", str(tmp_path)])
    steps = [json.loads((tmp_path / f"report_g{value!r}.json").read_text())
             for value in SWEEP_VALUES]
    steps = [row["extras"]["iterations"] for report in steps for row in report["methods"]
             if row["method"] == METHOD_STEPWISE]
    found = {name: (decompositions[name, "calls"], decompositions[name, "slices"])
             for name in KERNELS}
    assert found == {**SWEEP, "svd": (3 + max(steps), 3 * len(SWEEP_VALUES) + sum(steps))}


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_single_model_functions_run_their_rows_decompositions(decompositions, method):
    # a single-model name is its route on a stack of one under the rows' BLAS pin: the same
    # decompositions as its row, the same error or none
    h, d = build_model(LATTICE_128)
    decompositions.clear()
    row = run_comparison(LATTICE_128, (method,)).row(method)
    expected = Counter(decompositions)
    decompositions.clear()
    try:
        SINGLE_MODEL[method](h, d)
    except FWLabError as exc:
        assert (type(exc).__name__, str(exc)) == (row.error_type, row.error)
    else:
        assert row.error is None
    assert decompositions == expected
