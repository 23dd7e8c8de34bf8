"""Shared model suites, and fixtures that fake or spy on the lanes of ``run_comparisons``.

Three fixed families, sized so the whole run stays in the seconds range:
20 free-particle momenta, 10 lattice configurations with n <= 64, and 10
synthetic commuting models.  Every member is gapped (min |eig| at least
1e-6 ||H||_F, checked in the acceptance tests), so the sign operator is
well defined suite-wide.
"""

import os

import numpy as np
import pytest

from fwlab import ModelSpec, Potential, build_model, harness
from fwlab.models import KIND_FREE, KIND_LATTICE, KIND_SYNTHETIC

HAND_MOMENTA = (
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 0.75),
    (0.3, 0.4, 0.0),
    (0.0, 0.0, 0.1),
    (1.5, 0.0, 0.0),
)

LATTICE_CONFIGS = (
    (8, 4.0, Potential("zero")),
    (16, 8.0, Potential("constant", (0.2,))),
    (32, 8.0, Potential("gaussian", (0.1, 1.0))),
    (32, 8.0, Potential("gaussian", (0.2, 1.0))),
    (64, 16.0, Potential("gaussian", (0.1, 2.0))),
    (16, 8.0, Potential("step", (0.15, 0.0))),
    (32, 16.0, Potential("linear", (0.02,))),
    (48, 12.0, Potential("gaussian", (0.05, 1.5))),
    (64, 32.0, Potential("constant", (-0.1,))),
    (32, 8.0, Potential("step", (0.1, 1.0))),
)

# zero and constant potentials commute with the kinetic odd part
COMMUTING_LATTICE_INDICES = (0, 1, 8)

SYNTHETIC_CONFIGS = (
    (2, (0.1,), 0),
    (3, (0.0, 0.05), 1),
    (4, (0.2,), 2),
    (6, (0.05, 0.02), 3),
    (8, (0.0, 0.0, 0.01), 4),
    (10, (-0.1,), 5),
    (12, (0.1, 0.03), 6),
    (16, (0.0, 0.08), 7),
    (5, (0.15,), 8),
    (7, (0.1, 0.02, 0.005), 9),
)


def free_specs():
    rng = np.random.default_rng(7)
    momenta = list(HAND_MOMENTA) + [
        tuple(float(c) for c in row) for row in rng.uniform(-1.5, 1.5, (15, 3))
    ]
    return [ModelSpec(kind=KIND_FREE, mass=1.0, momentum=p) for p in momenta]


def lattice_specs():
    return [
        ModelSpec(kind=KIND_LATTICE, mass=1.0, n=n, length=length, potential=pot)
        for n, length, pot in LATTICE_CONFIGS
    ]


def synthetic_specs():
    return [
        ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=n, poly=poly, seed=seed)
        for n, poly, seed in SYNTHETIC_CONFIGS
    ]


def _build_all(specs):
    return [(spec,) + build_model(spec) for spec in specs]


@pytest.fixture(scope="session")
def free_suite():
    """20 x (spec, h, grading, decomposition), all commuting (E = 0)."""
    return _build_all(free_specs())


@pytest.fixture(scope="session")
def lattice_suite():
    return _build_all(lattice_specs())


@pytest.fixture(scope="session")
def commuting_lattice_suite(lattice_suite):
    return [lattice_suite[i] for i in COMMUTING_LATTICE_INDICES]


@pytest.fixture(scope="session")
def synthetic_suite():
    return _build_all(synthetic_specs())


@pytest.fixture(scope="session")
def full_suite(free_suite, lattice_suite, synthetic_suite):
    """All 40 gapped models of the acceptance suite."""
    return free_suite + lattice_suite + synthetic_suite


@pytest.fixture(scope="session")
def commuting_suite(free_suite, commuting_lattice_suite, synthetic_suite):
    """The 33 models with [E, O] = 0, where the closed forms apply."""
    return free_suite + commuting_lattice_suite + synthetic_suite


@pytest.fixture
def open_gate(monkeypatch):
    """Fake the facts the lane gate reads (see ``harness._lane_count``) with
    ``open_gate(blas_threads=1, cores=2, min_dim=0)``; ``blas_threads`` None
    stands for a process with no OpenBLAS loaded."""

    def fake(blas_threads=1, cores=2, min_dim=0):
        controls = [] if blas_threads is None else [(lambda: blas_threads, lambda count: None)]
        monkeypatch.setattr(harness, "_loaded_openblas", lambda: controls)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(harness, "CONCURRENCY_MIN_DIM", min_dim)

    return fake


@pytest.fixture
def lane_counts(monkeypatch):
    """The lanes of every lane pool ``run_comparisons`` opens, in order: its helper
    threads and the calling thread.  A serial call opens none."""
    counts = []

    class SpyPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            counts.append(max_workers + 1)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", SpyPool)
    return counts


@pytest.fixture
def lockstep_batches(monkeypatch):
    """The number of models of every ``stepwise_lockstep`` call the harness makes, in order."""
    sizes = []
    lockstep = harness.stepwise_lockstep

    def spy(hamiltonians, *args):
        sizes.append(len(hamiltonians))
        return lockstep(hamiltonians, *args)

    monkeypatch.setattr(harness, "stepwise_lockstep", spy)
    return sizes
