"""Where the step-by-step method applies: the spectral width against 4m.

``stepwise_rate`` predicts the asymptotic rate rho at which a step shrinks the
odd part, from H's spectrum alone.  A free particle has one rate,
|1 - sqrt(m^2 + p^2)/m|, so its boundary rho = 1 is p = sqrt(3) m, a kinetic
energy of mc^2.  A lattice mixes many pairs of eigenvalues, so its observed
rate approaches rho from below as the slowest pair takes over.  Models with
rho >= 1 cannot converge; the stopping rule reports them as stagnating or
capped, never as converged.  The 1/m series converges only for p < m, so the
two limits differ.
"""

import numpy as np
import pytest

from fwlab import ModelSpec, Potential, build_model, stepwise_fw
from fwlab.models import KIND_FREE, KIND_LATTICE
from fwlab.stepwise import STOP_TOLERANCE, ToleranceConfig

from oracles import stepwise_rate

# Runs long enough for the slowest pair to dominate, short of the rounding floor.
TOLERANCES = ToleranceConfig(stepwise_tol=1e-14, max_iterations=2000)


def _observed_rate(spec):
    """(rho, the last ratio of successive odd ratios, stop reason) of one stepwise run."""
    h, _ = build_model(spec)
    _, trace = stepwise_fw(h, spec.mass, TOLERANCES)
    ratios = [ratio for _, ratio, _ in trace.iterations]
    return stepwise_rate(h, spec.mass), ratios[-1] / ratios[-2], trace.stop_reason


@pytest.mark.parametrize("mass", [1.0, 3.0])
@pytest.mark.parametrize("p_over_m", [1.0, 1.5, 1.7])
def test_free_particle_rate_is_rho(mass, p_over_m):
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    spec = ModelSpec(kind=KIND_FREE, mass=mass, momentum=tuple(p_over_m * mass * direction))
    rho, observed, reason = _observed_rate(spec)
    assert rho == pytest.approx(abs(1.0 - np.hypot(1.0, p_over_m)), abs=1e-12)
    assert reason == STOP_TOLERANCE
    assert abs(observed - rho) <= 1e-3


def _lattice(n, length, mass, kind, *params):
    return ModelSpec(kind=KIND_LATTICE, mass=mass, n=n, length=length,
                     potential=Potential(kind, params))


# beside the shared lattice suite
LATTICES = [
    _lattice(64, 25.0, 1.0, "gaussian", 0.15, 2.0),
    _lattice(32, 24.0, 1.0, "linear", 0.01),
    _lattice(32, 11.0, 1.0, "gaussian", 0.1, 1.0),
    _lattice(32, 8.0, 1.8, "gaussian", 0.2, 1.0),
    # just past the boundary: rho = 1.06 and 1.14
    _lattice(16, 4.5, 1.0, "gaussian", 0.2, 1.0),
    _lattice(32, 8.5, 1.0, "gaussian", 0.1, 1.0),
]


def test_lattice_rates_follow_rho(lattice_suite):
    converging, failing = 0, 0
    for spec in [spec for spec, *_ in lattice_suite] + LATTICES:
        rho, observed, reason = _observed_rate(spec)
        if rho <= 0.95:
            converging += 1
            assert reason == STOP_TOLERANCE, spec.describe()
            assert observed == pytest.approx(rho, rel=0.02), spec.describe()
        elif rho >= 1.05:
            failing += 1
            assert reason != STOP_TOLERANCE, spec.describe()
    # the suite's five gaussian and step lattices sit past the boundary, its others inside it
    assert (converging, failing) == (9, 7)
