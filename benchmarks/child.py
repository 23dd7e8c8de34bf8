"""Fresh-interpreter measurements, run as a child of run.py.

    python3 benchmarks/child.py setup   '{"workload": ..., "input": ..., "workdir": ...}'
    python3 benchmarks/child.py threads '{"input": ..., "workdir": ..., "repeats": 3}'

``setup`` times importing fwlab and finishing the first operation of a
workload on a generated input.  ``threads`` times whole sweeps under the
thread settings the parent put in this process's environment.  Either
prints one JSON line.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(mode, payload):
    import fwlab  # noqa: F401  (the import is part of what setup measures)

    import threads
    import workloads

    if mode == "setup":
        workload = workloads.WORKLOADS[payload["workload"]]
        _, problems = workloads.run_op(workload, payload["input"], payload["workdir"])
        return {"setup_s": time.perf_counter() - STARTED, "problems": problems}
    sweep = workloads.WORKLOADS["sweep-32"]
    _, problems = workloads.run_op(sweep, payload["input"], payload["workdir"])
    times = []
    for _ in range(payload["repeats"]):
        elapsed, more = workloads.run_op(sweep, payload["input"], payload["workdir"])
        times.append(elapsed)
        problems += more
    return {"sweep_s": statistics.median(times), "problems": problems,
            "config": threads.library_config()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
