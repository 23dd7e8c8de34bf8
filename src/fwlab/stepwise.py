"""Iterative elimination of the odd part, the classical multi-step route.

Each pass splits the current Hamiltonian as beta m + E_k + O_k and rotates
with U_k = exp(i S_k), S_k = -i beta O_k / (2 m), which cancels O_k to
leading order in 1/m.  The generator i S_k = [[0, C], [-C^H, 0]] is odd and
anti-Hermitian, with C the upper-right block of O_k over 2m, so each step's
exponential comes from one n x n SVD of C in cosine-sine form.  The
composite transform U_K ... U_1 is unitary and drives the odd weight of the
Hamiltonian below a tolerance when the coupling is weak enough, but its
Hermitian generator is not odd: the iteration approaches the
block-diagonal Hamiltonian without approaching the sign-operator transform
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Grading, frobenius, odd_norm_ratio
from .eriksen import METHOD_STEPWISE, FWResult, compute_diagnostics, hamiltonian_spectrum
from .matfunc import odd_exp

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERATIONS = 50

# The run stagnates when the odd ratio fails to shrink by this factor
# over STAGNATION_STEPS consecutive steps.
STAGNATION_FACTOR = 0.99
STAGNATION_STEPS = 3

STOP_TOLERANCE = "tolerance_reached"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_STAGNATION = "stagnation"


@dataclass(frozen=True)
class StepwiseTrace:
    """Step-by-step record of one iterative run.

    ``iterations`` holds one (index, odd_norm_ratio_before, exponent_norm)
    entry per performed step; an immediately block-diagonal input performs
    zero steps and converges with the identity as composite.
    """

    iterations: tuple[tuple[int, float, float], ...]
    composite_transform: np.ndarray
    converged: bool
    stop_reason: str


def stepwise_fw(h, grading: Grading, mass: float, *, tol: float = DEFAULT_TOL,
                max_iterations: int = DEFAULT_MAX_ITERATIONS) -> tuple[FWResult, StepwiseTrace]:
    """Run the iterative scheme until tolerance, stagnation, or the cap.

    Parameters
    ----------
    h : array_like or Spectrum
        Hermitian Hamiltonian with finite entries, or its Spectrum.
    grading : Grading
        Block structure.
    mass : float
        Positive finite mass used in every exponent S_k = -i beta O_k / (2 mass).
    tol : float
        Target odd_norm_ratio of the transformed Hamiltonian.
    max_iterations : int
        Hard cap on performed steps.

    Returns
    -------
    (FWResult, StepwiseTrace)
        Non-convergence is a reported outcome, not an error: the result
        always carries the composite transform actually reached.
    """
    if not 0.0 < mass < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    spectrum = hamiltonian_spectrum(h, grading)
    n = grading.upper_dim
    current = spectrum.matrix
    composite = np.eye(grading.dim, dtype=complex)
    rows = []
    ratios = [odd_norm_ratio(current, grading)]
    while True:
        ratio = ratios[-1]
        if ratio <= tol:
            stop_reason = STOP_TOLERANCE
            break
        if len(rows) >= max_iterations:
            stop_reason = STOP_MAX_ITERATIONS
            break
        if len(ratios) > STAGNATION_STEPS and all(
            ratios[-j] > STAGNATION_FACTOR * ratios[-j - 1]
            for j in range(1, STAGNATION_STEPS + 1)
        ):
            stop_reason = STOP_STAGNATION
            break
        c = current[:n, n:] / (2.0 * mass)
        u_step = odd_exp(c)
        current = u_step @ current @ u_step.conj().T
        composite = u_step @ composite
        rows.append((len(rows), ratio, np.sqrt(2.0) * frobenius(c)))
        ratios.append(odd_norm_ratio(current, grading))
    diagnostics = compute_diagnostics(composite, spectrum, grading)
    result = FWResult(composite, current, METHOD_STEPWISE, diagnostics)
    converged = stop_reason == STOP_TOLERANCE
    return result, StepwiseTrace(tuple(rows), composite, converged, stop_reason)

