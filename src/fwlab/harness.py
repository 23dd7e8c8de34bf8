"""Schedules the transform catalog over a list of models: batches, lanes and the BLAS pin.

Every method is a route in ``ROUTES`` that gives each model of a batch
(U, U H U^H) or its error, and the scheduler diagnoses the route's stack as
one, so all are run, timed and recorded alike; ``report`` turns the outcomes
into reports.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .algebra import frobenius, relative_norm
from .eriksen import diagnose, eriksen_alt_stack, eriksen_stack
from .errors import FWLabError, OutsideValidityDomain
from .exact_case import ModelStack, u_fw_stack, weak_field_stack, weak_root_stack
from .matfunc import Slices, Spectrum
from .models import ModelSpec, build_model
# report_json stays importable from here: the benchmarks call it as harness.report_json
from .report import ComparisonReport, MethodRow, assemble_report, report_contexts, report_json
from .stepwise import ToleranceConfig, stepwise_lockstep


def _stepwise(slices, batch, extras):
    u, transformed, traces = stepwise_lockstep(batch.h, batch.grading, batch.masses,
                                               batch.tolerances)
    for row_extras, trace in zip(extras, traces):
        row_extras.update(converged=trace.converged, stop_reason=trace.stop_reason,
                          iterations=len(trace.iterations))
    return batch.h, u, transformed


def _weak_field(slices, batch, extras):
    # the root's error against |H| goes into the row even when the root fails its gap check;
    # a root whose error overflows leaves, as its products of H overflow before eriksen's do
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
    return weak_field_stack(slices, parts.h, root, batch.grading)


# The method catalog, in report order: tag -> route (Slices, batch, each model's row extras)
# -> (H, U, U H U^H) stacks of the models that pass, the others leaving the Slices (see
# ``run_comparisons``' ``stream``).  A route looks its function up in this module when called,
# so a wrapper set here is seen.
ROUTES = {
    "eriksen": lambda slices, b, extras: eriksen_stack(slices, b.h, b.grading),
    "eriksenalt": lambda slices, b, extras: eriksen_alt_stack(slices, b.h, b.grading),
    "exactcase": lambda slices, b, extras: u_fw_stack(slices, b.parts),
    "stepwise": _stepwise,
    "weakfield": _weak_field,
}
METHOD_TAGS = tuple(ROUTES)
(METHOD_ERIKSEN, METHOD_ERIKSEN_ALT, METHOD_EXACT_CASE, METHOD_STEPWISE,
 METHOD_WEAK_FIELD) = METHOD_TAGS
# The routes that read a batch's ModelStack; they run first, so that it goes early.
_PARTS_READERS = (METHOD_EXACT_CASE, METHOD_WEAK_FIELD)

# Lanes open from count * dim^2 >= CONCURRENCY_MIN_DIM^2 (one model at dim 128, 16 at dim 32);
# below, threads contend for the GIL.
CONCURRENCY_MIN_DIM = 128

# (get, set) thread-count entry points of the OpenBLAS builds numpy ships: its 64-bit-integer
# build, its 32-bit one, then a system library.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_pins = SimpleNamespace(lock=threading.Lock(), open=0, saved=None)  # see single_blas_thread


@functools.cache
def numpy_openblas():
    """(get, set) thread-count functions of the OpenBLAS that runs numpy's linalg, or None when
    numpy uses another BLAS: looked up through the handle of numpy's ``_umath_linalg``, which
    links it, so nothing is loaded and another library's OpenBLAS is not seen."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):  # no RTLD_NOLOAD, as on Windows
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name):
            return (ctypes.CFUNCTYPE(ctypes.c_int)((get_name, lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((set_name, lib)))
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and yield True, or yield False when
    numpy runs on another BLAS.  The first of overlapping entries saves the thread count, and
    the last one out restores it.  At dim <= ~256 threaded BLAS is slower than serial.
    """
    controls = numpy_openblas()
    if controls is None:
        yield False
        return
    get, set_ = controls
    with _pins.lock:
        if not _pins.open:
            _pins.saved = get()
            set_(1)
        _pins.open += 1
    try:
        yield True
    finally:
        with _pins.lock:
            _pins.open -= 1
            if not _pins.open:
                set_(_pins.saved)


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
    """(row, (U, U H U^H, ||U||_F, ||U H U^H||_F) or None) of one method on each model of a
    batch: its route, then one diagnostics step on the stack it gives."""
    started = time.perf_counter()
    slices, extras = Slices(len(batch.index)), [{} for _ in batch.index]
    try:
        h, u, transformed = ROUTES[method](slices, batch, extras)
        norms = dict(zip(slices.index, zip(frobenius(u).tolist(), frobenius(transformed).tolist())))
        found = diagnose(slices, h, u, transformed, batch.grading, method != METHOD_WEAK_FIELD)
        results = dict(zip(slices.index, found))
    except FWLabError as exc:  # no slice is left, or one error fails them all
        results = {}
        slices.errors.update(dict.fromkeys(slices.index, (type(exc), str(exc))))
    elapsed, outcomes = time.perf_counter() - started, []
    for slot, row_extras in enumerate(extras):
        row = MethodRow(method=method, extras=row_extras, wall_time_seconds=elapsed)
        if (result := results.get(slot)) is None:
            kind, row.error = slices.errors[slot]
            row.error_type = kind.__name__
        else:
            row.diagnostics = result.diagnostics
        outcomes.append((row, result and (result.transform, result.transformed_hamiltonian,
                                          *norms[slot])))
    return outcomes


def _model(spec: ModelSpec):
    """[H, decomposition] of one spec; ``build_model`` checks H as an eigh operand."""
    h, _, decomposition = build_model(spec)
    return [h, decomposition]


def run_comparisons(specs, methods=METHOD_TAGS,
                    tolerances: ToleranceConfig = ToleranceConfig()) -> list[ComparisonReport]:
    """Build each batch of models as stacks and run every requested method on them.

    Methods always appear in canonical order; ValueError for an empty or unknown method list.
    A method failure (for example NotCommuting for the closed forms on a non-commuting model)
    becomes an error record in its row; it never aborts the report.  The specs fall into
    contiguous batches of ``lane_batch_size`` models, and every model must have the first
    one's shape (DimensionMismatch).  A stream of tasks, advanced under the call's one lock,
    sets each batch up when it is reached: it builds the models, runs H's stacked eigh and
    yields the stepwise lockstep, then prepares the rest (the ModelStack and each model's
    context) and yields one task per other method.  Tasks only compute; ``_lane_count`` lanes
    take them in order.  A batch's reports are built once its contexts and every method's
    outcomes are in, each the same as for its spec alone; a row's ``wall_time_seconds`` runs
    from the start of its method's task on the batch to the end of the diagnostics.  All of
    it runs under ``single_blas_thread``: numpy's OpenBLAS is on one thread, process-wide,
    until the last of overlapping calls restores the count.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_TAGS)}")
    methods = [m for m in METHOD_TAGS if m in methods]
    one_shot = sorted((m for m in methods if m != METHOD_STEPWISE),
                      key=lambda m: m not in _PARTS_READERS)
    specs = list(specs)
    if not specs:
        return []
    reports, lock = [None] * len(specs), threading.Lock()

    def run(method, batch):
        outcomes = _run_method(method, batch)
        with lock:
            batch.found[method] = outcomes
            batch.readers.discard(method)
            if not batch.readers:
                batch.parts = None
            finish(batch)

    def finish(batch):
        """Under the lock: the batch's reports, once its contexts and all outcomes are in."""
        if batch.contexts is None or len(batch.found) < len(methods):
            return
        for i, context, *found in zip(batch.index, batch.contexts, *map(batch.found.get, methods)):
            reports[i] = assemble_report(specs[i], context, dict(zip(methods, found)), tolerances)
        batch.found = None

    def stream():  # advanced under the lock, so each batch is set up once, when it is reached
        for k in range(count):
            index = range(len(specs) * k // count, len(specs) * (k + 1) // count)
            for i in index:
                models[i] = models[i] or _model(specs[i])
                grading.check(models[i][0])
            h, ds = np.stack([models[i][0] for i in index]), [models[i][1] for i in index]
            models[index.start:index.stop] = [None] * len(index)
            batch = SimpleNamespace(index=index, h=Spectrum(h, *np.linalg.eigh(h)), parts=None,
                                    contexts=None, found={}, grading=grading,
                                    readers={m for m in _PARTS_READERS if m in methods},
                                    masses=[specs[i].mass for i in index], tolerances=tolerances)
            del h
            if METHOD_STEPWISE in methods:  # the lockstep starts at the eigh
                yield functools.partial(run, METHOD_STEPWISE, batch)
            # ``parts`` is kept while a method in ``readers`` is left
            parts = ModelStack.of(ds, batch.h)
            del ds
            if METHOD_WEAK_FIELD in methods:
                parts.odd_svd
            batch.contexts = report_contexts(parts, batch.masses)
            batch.parts = parts if batch.readers else None
            del parts
            finish(batch)  # a stepwise-only batch's lockstep may have ended
            yield from (functools.partial(run, m, batch) for m in one_shot)
            del batch

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
        models = [_model(specs[0])] + [None] * (len(specs) - 1)
        grading = models[0][1].grading
        count = max(1, len(specs) // lane_batch_size(grading.dim))
        tasks = stream()
        # one lockstep per batch and the one-shot routes of each model, as parallel work
        task_count = (count if METHOD_STEPWISE in methods else 0) + (len(specs) if one_shot else 0)
        lanes = _lane_count(task_count, len(specs), grading.dim, pinned)
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
    """The report of one spec: ``run_comparisons([spec], methods, tolerances)[0]``."""
    return run_comparisons([spec], methods, tolerances)[0]
