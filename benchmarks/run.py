"""fwlab benchmark: one workload, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload lattice-128 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fwlab is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer metrics, the tracing overhead and the thread matrix.
Operations run in a closed loop with one client.  Human-readable lines come
first; the last line of standard output is one JSON object.

Modules that load numpy are imported inside functions, after the workload's
thread settings are in the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import threads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 5           # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10         # samples required beyond the reported tail percentile
THREAD_REPEATS = 3       # timed sweeps per thread-matrix cell
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(threads.WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child(mode, payload, env=None):
    """Run child.py in a fresh interpreter and return its JSON result."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(payload)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {mode} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def timed_loop(workload, inputs, workdir, tally, seconds):
    """Operations over ``inputs``, cycling, until ``seconds`` elapse; their seconds."""
    import workloads

    samples = []
    deadline = time.perf_counter() + seconds
    for inp in itertools.cycle(inputs):
        elapsed, problems = workloads.run_op(workload, inp, workdir)
        samples.append(elapsed)
        tally.add(problems)
        if time.perf_counter() >= deadline:
            return samples


def one_pass(workload, inputs, workdir, tally, tracer=None, first_op=0):
    """One operation per input; with ``tracer``, operation ids from ``first_op``."""
    import workloads

    samples = []
    for op, inp in enumerate(inputs, start=first_op):
        if tracer is not None:
            tracer.begin_op(op)
        elapsed, problems = workloads.run_op(workload, inp, workdir)
        samples.append(elapsed)
        tally.add(problems)
    return samples


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def measure(workload, args, workdir, tally, lines):
    """End-to-end metrics with tracing off."""
    import workloads

    inputs = workload.inputs(args.seed, workdir, workload.pool_size)
    setups = []
    for _ in range(SETUP_RUNS):
        result = child("setup", {"workload": workload.name, "input": inputs[0],
                                 "workdir": workdir})
        setups.append(result["setup_s"])
        tally.add(result["problems"])
    _, problems = workloads.run_op(workload, inputs[0], workdir, self_test=True)
    tally.add(problems)

    samples = timed_loop(workload, inputs, workdir, tally, args.seconds)
    n = len(samples)
    p50 = statistics.median(samples)
    tail_s, tail_pct, beyond = tail(samples)
    rate = n * workload.comparisons_per_op / sum(samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setups)
    lines += [
        f"ops: {n} timed in a closed loop with one client, over {len(inputs)} seeded inputs",
        f"op_s.p50           {p50:.6f} s     (median of {n} samples)",
        f"op_s.tail          {tail_s:.6f} s     (p{tail_pct:.1f}: "
        f"{beyond} of {n} samples beyond it)",
        f"comparisons_per_s  {rate:.4f} 1/s   ({workload.comparisons_per_op} per op, per second of op time)",
        f"setup_s            {setup_s:.6f} s     (median of {SETUP_RUNS} fresh interpreters: "
        f"import fwlab + first op; {', '.join(f'{s:.3f}' for s in setups)})",
        f"failed_frac        {tally.failed / tally.attempted:.6f} fraction "
        f"({tally.failed} of {tally.attempted} ops, set-up and warm-up included)",
        f"peak_rss_mb        {rss_mb:.3f} MB    (this process)",
    ]
    return {
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "comparisons_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def thread_matrix(args, workdir, tally, lines):
    """Whole sweeps under {BLAS 1, nproc} x {FWLAB_THREADS 1, nproc}, fresh children."""
    import workloads

    sweep_input = workloads.WORKLOADS["sweep-32"].inputs(args.seed, workdir, 1)[0]
    metrics = {}
    for blas in ("1", "nproc"):
        for pool in ("1", "nproc"):
            env = dict(os.environ)
            threads.apply(env, threads.thread_settings(blas, pool))
            result = child("threads", {"input": sweep_input, "workdir": workdir,
                                       "repeats": THREAD_REPEATS}, env=env)
            tally.add(result["problems"])
            # N stands for nproc, so names do not depend on the machine.
            name = f"threads.blas{blas[0].upper()}.pool{pool[0].upper()}.sweep_s"
            metrics[name] = (result["sweep_s"], "s")
            config = result["config"]
            lines.append(f"{name:34s} {result['sweep_s']:.6f} s  "
                         f"(OPENBLAS_NUM_THREADS={config['OPENBLAS_NUM_THREADS']}, "
                         f"FWLAB_THREADS={config['FWLAB_THREADS']}, nproc={config['nproc']})")
    return metrics


def traced(workload, args, workdir, tally, lines):
    """Per-layer metrics from a traced run, plus overhead and thread matrix."""
    import tracer as tracing
    import workloads

    inputs = workload.inputs(args.seed, workdir, workload.traced_pool_size)
    _, problems = workloads.run_op(workload, inputs[0], workdir, self_test=True)
    tally.add(problems)
    # Untraced and traced passes alternate, so that drift in machine speed
    # falls on both sides of the overhead; at least two traced passes.
    tracer = tracing.Tracer()
    untraced, samples = [], []
    deadline = time.perf_counter() + args.seconds
    while len(samples) < 2 * len(inputs) or time.perf_counter() < deadline:
        untraced += one_pass(workload, inputs, workdir, tally)
        tracer.install()
        try:
            samples += one_pass(workload, inputs, workdir, tally, tracer, len(samples))
        finally:
            tracer.uninstall()

    ops = list(range(len(samples)))
    passes = [ops[i:i + len(inputs)] for i in range(0, len(ops), len(inputs))]
    first = tracing.call_counts(tracer, passes[0])
    repeatable = all(tracing.call_counts(tracer, p) == first for p in passes[1:])
    metrics = tracing.per_layer(tracer, ops)
    traced_p50, untraced_p50 = statistics.median(samples), statistics.median(untraced)
    metrics["trace.op_s.p50"] = (traced_p50, "s")
    metrics["trace.untraced_op_s.p50"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    errors = {key: value / len(ops) for key, value in tracing.call_counts(tracer, ops).items()
              if key.startswith("harness.error_records.")}

    lines += [f"traced ops: {len(ops)} in {len(passes)} passes over {len(inputs)} inputs; "
              f"untraced ops: {len(untraced)}",
              f"counts repeat exactly across passes: {repeatable}",
              f"tracing overhead: {traced_p50 - untraced_p50:.6f} s per op "
              f"(traced p50 {traced_p50:.6f} s, untraced p50 {untraced_p50:.6f} s)",
              f"error records per op by type: {errors}"]
    lines += tracing.layer_table(tracer, ops)
    metrics.update(thread_matrix(args, workdir, tally, lines))
    return metrics, repeatable


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fwlab", "__init__.py")):
        print(f"benchmark: no fwlab sources at {SRC}; run from a checkout", file=sys.stderr)
        return 1
    threads.configure(args.workload)
    sys.path.insert(0, SRC)
    import fwlab

    if not os.path.abspath(fwlab.__file__).startswith(SRC + os.sep):
        print(f"benchmark: fwlab imported from {fwlab.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    lines = [f"workload {workload.name}, seed {args.seed}, {args.seconds} s, "
             f"trace {args.trace}",
             f"config: {json.dumps(threads.library_config(), sort_keys=True)}"]
    tally = Tally()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            metrics, repeatable = traced(workload, args, workdir, tally, lines)
        else:
            metrics, repeatable = measure(workload, args, workdir, tally, lines), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines += [f"problem: {problem}" for problem in tally.problems]
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
