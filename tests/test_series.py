"""The 1/m series behind the paper's comparison of one-shot and step-by-step routes.

On non-commuting lattices (n = 32, L = 24) and m = 2 ... 32, three fixed and
others drawn, the exact Eriksen Hamiltonian follows ``fw_series`` to order
1/m^3, so their difference falls like 1/m^4 or faster, while a step-by-step
run converged to its end point parts from it at order 1/m^3, by
``stepwise_departure`` / m^3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import ModelSpec, Potential, build_model, eriksen_transform, frobenius, stepwise_fw
from fwlab.models import KIND_LATTICE
from fwlab.stepwise import STOP_TOLERANCE, ToleranceConfig

from oracles import fw_series, stepwise_departure

MASSES = (2.0, 4.0, 8.0, 16.0, 32.0)
POTENTIALS = [Potential("gaussian", (0.2, 6.0)), Potential("gaussian", (0.5, 2.0)),
              Potential("linear", (0.01,))]


def _local_orders(errors):
    """log2 of the error ratio between consecutive masses, which double."""
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


def _check_series(potential):
    series_errors, departures = [], []
    for mass in MASSES:
        spec = ModelSpec(kind=KIND_LATTICE, mass=mass, n=32, length=24.0, potential=potential)
        h, d = build_model(spec)
        h_eriksen = eriksen_transform(h).transformed_hamiltonian
        result, trace = stepwise_fw(h, mass, ToleranceConfig(stepwise_tol=1e-14))
        assert trace.stop_reason == STOP_TOLERANCE
        series_errors.append(frobenius(h_eriksen - fw_series(d)))
        departure = result.transformed_hamiltonian - h_eriksen
        departures.append(frobenius(departure))
    # measured 4.02-4.98 from m = 8 on
    assert np.all(_local_orders(series_errors)[MASSES.index(8.0):] >= 3.8)
    # measured 2.94-3.05
    np.testing.assert_allclose(_local_orders(departures), 3.0, atol=0.1)
    # at m = 32, measured 3.5%, 1.3% and 1.3%
    leading = stepwise_departure(d)
    assert frobenius(departure * mass**3 - leading) <= 0.05 * frobenius(leading)


@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: p.kind + str(p.params))
def test_eriksen_series_and_stepwise_departure(potential):
    _check_series(potential)


@settings(max_examples=8, deadline=None)
@given(potential=st.one_of(
    st.builds(lambda strength, width: Potential("gaussian", (strength, width)),
              st.floats(0.2, 0.5), st.floats(2.0, 6.0)),
    st.builds(lambda slope: Potential("linear", (slope,)), st.floats(0.005, 0.02))))
def test_series_and_departure_on_drawn_potentials(potential):
    _check_series(potential)
