"""Schedules the transform catalog over a list of models: batches and lanes.

Every method is a route in ``ROUTES`` that gives each model of a batch
(U, U H U^H) or its error, and the scheduler diagnoses the route's stack as
one, so all are run, timed and recorded alike; ``report`` builds the rows and
reports from the outcomes.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .algebra import relative_norm, require_type
from .eriksen import diagnose, eriksen_alt_stack, eriksen_stack
from .errors import DimensionMismatch, FWLabError, OutsideValidityDomain
from .exact_case import ModelStack, u_fw_stack, weak_field_stack, weak_root_stack
from .matfunc import Slices, Spectrum, single_blas_thread
from .models import ModelSpec, build_model
# report_json stays importable from here: the benchmarks call it as harness.report_json
from .report import ComparisonReport, assemble_report, report_contexts, report_json
from .stepwise import ToleranceConfig, stepwise_lockstep


def _stepwise(slices, batch, extras):
    u, transformed, traces = stepwise_lockstep(batch.h, batch.masses, batch.tolerances)
    for row_extras, trace in zip(extras, traces):
        row_extras.update(converged=trace.converged, stop_reason=trace.stop_reason,
                          iterations=len(trace.iterations))
    return batch.h, u, transformed


def _weak_field(slices, batch, extras):
    # the root's error against |H| goes into the row even when the root fails its gap check;
    # a root whose error overflows leaves: its {beta m + O, E} is of the size of H^2
    with np.errstate(over="ignore", invalid="ignore"):
        parts, root = weak_root_stack(slices, batch.parts)
        reference = parts.h.apply(np.abs)
        errors = relative_norm(root - reference, reference).tolist()
    del reference

    def measured(slot):
        if not errors[slot] < np.inf:
            raise OutsideValidityDomain("the approximate root's error against |H| overflows")
        extras[slices.index[slot]]["sqrt_relative_error"] = errors[slot]

    parts, root = slices.gate(measured, parts, root)
    return weak_field_stack(slices, parts.h, root)


# The method catalog, in report order: tag -> route (Slices, batch, each model's row extras)
# -> (H, U, U H U^H) stacks of the models that pass, the others leaving the Slices.  A route
# looks its function up in this module when called, so a wrapper set here is seen.
ROUTES = {
    "eriksen": lambda slices, b, extras: eriksen_stack(slices, b.h),
    "eriksenalt": lambda slices, b, extras: eriksen_alt_stack(slices, b.h),
    "exactcase": lambda slices, b, extras: u_fw_stack(slices, b.parts),
    "stepwise": _stepwise,
    "weakfield": _weak_field,
}
METHOD_TAGS = tuple(ROUTES)
(METHOD_ERIKSEN, METHOD_ERIKSEN_ALT, METHOD_EXACT_CASE, METHOD_STEPWISE,
 METHOD_WEAK_FIELD) = METHOD_TAGS
# A batch's tasks in lane order.  The closed forms' task always runs and builds the ModelStack,
# and each model's context; weakfield takes the stack's odd-block SVD, exactcase's subset reuses it.
_TASKS = ((METHOD_STEPWISE,), (METHOD_WEAK_FIELD, METHOD_EXACT_CASE), (METHOD_ERIKSEN,),
          (METHOD_ERIKSEN_ALT,))

# Lanes open from count * dim^2 >= CONCURRENCY_MIN_DIM^2 (one model at dim 128, 16 at dim 32);
# below, threads contend for the GIL.
CONCURRENCY_MIN_DIM = 128

def lane_batch_size(dim: int) -> int:
    """Fewest models of dimension ``dim`` with count * dim^2 >= CONCURRENCY_MIN_DIM^2."""
    return max(1, -(-CONCURRENCY_MIN_DIM ** 2 // dim ** 2))


def _lane_count(tasks: int, count: int, dim: int, pinned: bool) -> int:
    """Lanes, the caller among them, for ``tasks`` tasks on ``count`` models of dimension ``dim``:
    min(cores, tasks) from ``lane_batch_size`` models on BLAS ``pinned`` to one thread, else one."""
    # a second caller thread stacked on threaded BLAS makes a comparison slower
    if count < lane_batch_size(dim) or not pinned:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, tasks)


def _run_method(method, batch):
    """(seconds, row extras, outcome) of one method on each model of a batch: its route, then one
    diagnostics step on the stack it gives.  An outcome is the model's FWResult, or the
    (FWLabError type, message) that ``Slices.errors`` holds for it."""
    started = time.perf_counter()
    slices, extras = Slices(len(batch.index)), [{} for _ in batch.index]
    try:
        h, u, transformed = ROUTES[method](slices, batch, extras)
        found = diagnose(slices, h, u, transformed, method != METHOD_WEAK_FIELD)
        results = dict(zip(slices.index, found))
    except FWLabError as exc:  # no slice is left, or one error fails them all
        results = {}
        slices.errors.update(dict.fromkeys(slices.index, (type(exc), str(exc))))
    elapsed = time.perf_counter() - started
    return [(elapsed, row_extras, results.get(slot) or slices.errors[slot])
            for slot, row_extras in enumerate(extras)]


def run_comparisons(specs, methods=METHOD_TAGS,
                    tolerances: ToleranceConfig = ToleranceConfig()) -> list[ComparisonReport]:
    """Build each batch of models as stacks and run every requested method on them.

    ``specs`` is a list or tuple of ModelSpecs, ``methods`` one of method tags and ``tolerances`` a
    ToleranceConfig: ValueError naming the argument otherwise, or for an empty or unknown method
    list.  Methods always appear in canonical order.  A method failure (for example NotCommuting for
    the closed forms on a non-commuting model) becomes an error record in its row; it never aborts
    the report.  The specs fall into contiguous batches of ``lane_batch_size`` models, and every
    model must have the first one's shape (DimensionMismatch).  A stream of tasks, advanced under
    the call's one lock, builds each batch when it is reached (its models and H's stacked eigh)
    and yields its ``_TASKS`` in order, the lockstep first.  The closed forms' task always runs:
    it builds the batch's ModelStack and each model's context, and drops the stack when it ends.
    ``_lane_count`` lanes take the tasks in order.  The end of a batch's last task builds its
    reports, each the same as for its spec alone; a row's ``wall_time_seconds`` runs from the
    start of its method's route to the end of its diagnostics, all under the BLAS pin.
    """
    methods = list(require_type(methods, (list, tuple), "methods", "a list or tuple"))
    if not methods:
        raise ValueError("methods must name at least one method")
    for i, method in enumerate(methods):
        if require_type(method, str, f"methods[{i}]") not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_TAGS)}")
    methods = [m for m in METHOD_TAGS if m in methods]
    lockstep, closed, *one_shot = [[m for m in task if m in methods] for task in _TASKS]
    # a batch's tasks: the closed forms' one always runs, as it builds every report's context
    batch_tasks = [task for task in (lockstep, closed, *one_shot) if task or task is closed]
    specs = [require_type(spec, ModelSpec, f"specs[{i}]") for i, spec in
             enumerate(require_type(specs, (list, tuple), "specs", "a list or tuple"))]
    require_type(tolerances, ToleranceConfig, "tolerances")
    if not specs:
        return []
    reports, lock = [None] * len(specs), threading.Lock()

    def run(task, batch):
        if task is closed:  # this task owns the batch's ModelStack, from its build to its drop
            batch.parts, batch.ds = ModelStack.of(batch.ds, batch.h), None
            batch.contexts = report_contexts(batch.parts, batch.masses)
        outcomes = {method: _run_method(method, batch) for method in task}
        if task is closed:
            batch.parts = None
        with lock:  # the end of a batch's last task builds its reports
            batch.found.update(outcomes)
            batch.pending -= 1
            if batch.pending:
                return
            for i, context, *found in zip(batch.index, batch.contexts,
                                          *map(batch.found.get, methods)):
                reports[i] = assemble_report(specs[i], context, dict(zip(methods, found)),
                                             tolerances)
            batch.found = None

    def stream():  # advanced under the lock, so each batch is built once, when it is reached
        for k in range(count):
            index = range(len(specs) * k // count, len(specs) * (k + 1) // count)
            for i in index:
                models[i] = models[i] or build_model(specs[i])
                if len(models[i][0]) != dim:
                    raise DimensionMismatch(f"model {i} has shape {models[i][0].shape}, "
                                            f"model 0 {(dim, dim)}")
            h = np.stack([models[i][0] for i in index])
            batch = SimpleNamespace(index=index, h=Spectrum(h, *np.linalg.eigh(h)), found={},
                                    ds=[models[i][1] for i in index], pending=len(batch_tasks),
                                    masses=[specs[i].mass for i in index], tolerances=tolerances)
            models[index.start:index.stop] = [None] * len(index)
            yield from (functools.partial(run, task, batch) for task in batch_tasks)

    def take():
        with lock:
            return next(tasks, None)

    def lane():
        try:
            while (task := take()) is not None:
                task()
        finally:
            with lock:
                tasks.close()  # after a failure the other lanes stop at their next task

    with single_blas_thread() as pinned:
        models = [build_model(specs[0])] + [None] * (len(specs) - 1)
        dim = len(models[0][0])
        count = max(1, len(specs) // lane_batch_size(dim))
        tasks = stream()
        # one lockstep per batch and the one-shot routes of each model, as parallel work
        task_count = (count if lockstep else 0) + (len(specs) if closed or any(one_shot) else 0)
        lanes = _lane_count(task_count, len(specs), dim, pinned)
        if lanes == 1:
            lane()
        else:
            with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
                helpers = [pool.submit(lane) for _ in range(lanes - 1)]
                lane()
                for helper in helpers:
                    helper.result()
    return reports


def run_comparison(spec: ModelSpec, methods=METHOD_TAGS,
                   tolerances: ToleranceConfig = ToleranceConfig()) -> ComparisonReport:
    """The report of one ModelSpec: ``run_comparisons([spec], methods, tolerances)[0]``."""
    return run_comparisons([require_type(spec, ModelSpec, "spec")], methods, tolerances)[0]
