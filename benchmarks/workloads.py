"""The three workloads: seeded inputs, the timed operation, its output check.

Inputs depend only on the seed, and the i-th input does not depend on how
many are drawn.  The program receives only the generated inputs: lattice
parameters, matrix files written by this module, or sweep command lines.
Entry points are looked up on their modules at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import numpy as np

import fwlab
from fwlab import cli, harness

import check

MASS = 1.0


class LatticeLibrary:
    """``run_comparison`` + ``report_json`` on non-commuting n=64 lattices.

    L in [24.5, 26.5] keeps stepwise at 32-46 steps to tolerance, so it does
    most of the work; exactcase stops at ``check_commutation``.
    """

    name = "lattice-128"
    comparisons_per_op = 1
    pool_size = 256
    traced_pool_size = 8
    expect = {"commuting": False, "dim": 128}

    def inputs(self, seed, workdir, count):
        rng = np.random.default_rng(seed)
        return [{"L": rng.uniform(24.5, 26.5), "g": rng.uniform(0.05, 0.25),
                 "width": rng.uniform(1.0, 3.0)} for _ in range(count)]

    def run(self, inp, out_dir):
        spec = fwlab.ModelSpec(
            kind="lattice", mass=MASS, n=64, length=inp["L"],
            potential=fwlab.Potential("gaussian", (inp["g"], inp["width"])),
        )
        return harness.report_json(harness.run_comparison(spec))

    def sample_report(self, inp, outcome):
        return json.loads(outcome), self.expect

    def problems(self, inp, outcome):
        return check.report_problems(json.loads(outcome), **self.expect)


class MatrixCommuting:
    """``fwlab matrix --out`` on synthetic commuting models at dim 128.

    E is a polynomial in O^2, so every route, the closed forms included,
    does full work.
    """

    name = "matrix-commuting-128"
    comparisons_per_op = 1
    pool_size = 16
    traced_pool_size = 4
    block = 64

    def inputs(self, seed, workdir, count):
        rng = np.random.default_rng(seed)
        made = []
        for index in range(count):
            h = self._hamiltonian(rng)
            path = os.path.join(workdir, f"model{index}.txt")
            _write_matrix(path, h)
            gap = float(np.min(np.abs(np.linalg.eigvalsh(h))))
            made.append({"path": path, "gap": gap})
        return made

    def _hamiltonian(self, rng):
        n = self.block
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)
        odd = np.zeros((2 * n, 2 * n), dtype=complex)
        odd[:n, n:] = b
        odd[n:, :n] = b.conj().T
        even = rng.uniform(-0.1, 0.1) * np.eye(2 * n) + rng.uniform(0.0, 0.08) * (odd @ odd)
        beta = np.diag(np.r_[np.ones(n), -np.ones(n)])
        h = MASS * beta + even + odd
        return 0.5 * (h + h.conj().T)

    def run(self, inp, out_dir):
        out = os.path.join(out_dir, "report.json")
        code = cli.main(["matrix", "--file", inp["path"], "--mass", repr(MASS), "--out", out])
        return code, out

    def sample_report(self, inp, outcome):
        with open(outcome[1]) as handle:
            return json.load(handle), {"commuting": True, "dim": 2 * self.block,
                                       "gap": inp["gap"]}

    def problems(self, inp, outcome):
        code = outcome[0]
        if code != 0:
            return [f"exit code {code}, expected 0"]
        report, expect = self.sample_report(inp, outcome)
        return check.report_problems(report, **expect)


class Sweep:
    """One whole ``fwlab sweep`` over 16 strengths at n=16 (dim 32).

    L in [7.5, 9] keeps stepwise at about 20 steps; the strengths stay weak
    enough for the weak-field root to remain positive definite.
    """

    name = "sweep-32"
    comparisons_per_op = 16
    pool_size = 64
    traced_pool_size = 2
    expect = {"commuting": False, "dim": 32}

    def inputs(self, seed, workdir, count):
        rng = np.random.default_rng(seed)
        made = []
        for _ in range(count):
            length, width = rng.uniform(7.5, 9.0), rng.uniform(1.0, 3.0)
            values = [float(v) for v in sorted(rng.uniform(0.02, 0.4, 16), reverse=True)]
            base = (f"--n 16 --L {length!r} --mass {MASS!r} "
                    f"--potential gaussian:{values[0]!r},{width!r}")
            made.append({"base": base, "values": values})
        return made

    def run(self, inp, out_dir):
        values = ",".join(repr(v) for v in inp["values"])
        return cli.main(["sweep", "--base", inp["base"], "--param", "g",
                         "--values", values, "--out", out_dir]), out_dir

    def sample_report(self, inp, outcome):
        path = os.path.join(outcome[1], f"report_g{inp['values'][0]!r}.json")
        with open(path) as handle:
            return json.load(handle), self.expect

    def problems(self, inp, outcome):
        code, out_dir = outcome
        return check.sweep_problems(code, out_dir, inp["values"], self.expect["dim"])


def run_op(workload, inp, workdir, self_test=False):
    """One timed operation in a fresh output directory: (seconds, problems).

    An operation that raises counts as failed, it does not stop the run.
    With ``self_test`` the checker is also shown to reject tampered copies
    of the operation's report.
    """
    out_dir = tempfile.mkdtemp(dir=workdir)
    try:
        started = time.perf_counter()
        try:
            outcome = workload.run(inp, out_dir)
        except (Exception, SystemExit) as exc:
            return time.perf_counter() - started, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - started
        try:
            problems = workload.problems(inp, outcome)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if self_test and not problems:
            check.self_test(*workload.sample_report(inp, outcome))
        return elapsed, problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _write_matrix(path, h):
    """Graded matrix file: 'dim upper_dim', then rows of re+imj entries."""

    def entry(z):
        re, im = float(z.real), float(z.imag)
        return f"{re!r}{'-' if np.signbit(im) else '+'}{abs(im)!r}j"

    dim = h.shape[0]
    lines = [f"{dim} {dim // 2}"] + [" ".join(entry(z) for z in row) for row in h]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (LatticeLibrary(), MatrixCommuting(), Sweep())}
