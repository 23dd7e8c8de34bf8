"""Iterative elimination of the odd part, the classical multi-step route.

Each pass splits the current Hamiltonian as beta m + E_k + O_k and rotates
with U_k = exp(i S_k), S_k = -i beta O_k / (2 m), which cancels O_k to
leading order in 1/m.  The generator i S_k = [[0, C], [-C^H, 0]] is odd, with
C the upper-right block of O_k over 2m, so its exponential comes from one
n x n SVD of C.  The iteration rotates the eigenframe of H = V diag(w) V^H,
not H: it tracks F = U_k ... U_1 V, whose blocks give the next odd block
F_upper diag(w) F_lower^H.  The composite U_K ... U_1 = F V^H is unitary and
drives the odd weight below a tolerance when the coupling is weak enough,
but its Hermitian generator is not odd: the iteration approaches the
block-diagonal Hamiltonian without approaching the sign-operator transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_FLOOR, Grading, frobenius, require_mass
from .eriksen import FWResult, compute_diagnostics, hamiltonian_spectrum
from .matfunc import odd_exp

# The run stagnates when the odd ratio fails to shrink by this factor
# over STAGNATION_STEPS consecutive steps.
STAGNATION_FACTOR = 0.99
STAGNATION_STEPS = 3

STOP_TOLERANCE = "tolerance_reached"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_STAGNATION = "stagnation"


@dataclass(frozen=True)
class ToleranceConfig:
    """The stepwise stopping rule, the only settable tolerances of a comparison.

    ``stepwise_tol`` is the target odd_norm_ratio and ``max_iterations`` the
    cap on steps; ValueError unless 0 < stepwise_tol < inf and
    max_iterations >= 0.
    """

    stepwise_tol: float = 1e-8
    max_iterations: int = 50

    def __post_init__(self):
        if not 0.0 < self.stepwise_tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.stepwise_tol}")
        if not self.max_iterations >= 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")


@dataclass(frozen=True)
class StepwiseTrace:
    """Step-by-step record of one iterative run.

    ``iterations`` holds one (index, odd_norm_ratio_before, exponent_norm)
    entry per performed step; an immediately block-diagonal input performs
    zero steps and converges with the identity as the result's transform.
    """

    iterations: tuple[tuple[int, float, float], ...]
    converged: bool
    stop_reason: str


def stepwise_fw(h, grading: Grading, mass: float,
                tolerances: ToleranceConfig = ToleranceConfig()) -> tuple[FWResult, StepwiseTrace]:
    """Run the iterative scheme until tolerance, stagnation, or the cap.

    ``h`` is a finite Hermitian Hamiltonian or its Spectrum, ``mass`` the
    positive finite m of every exponent, and ``tolerances`` the stopping
    rule.  Non-convergence is a reported outcome, not an error: the result
    always carries the composite transform actually reached.
    """
    require_mass(mass)
    spectrum = hamiltonian_spectrum(h, grading)
    n = grading.upper_dim
    w, frame = spectrum.w, spectrum.v
    scale = np.sqrt(2.0) / max(frobenius(spectrum.matrix), NORM_FLOOR)
    block = spectrum.matrix[:n, n:]
    rows = []
    ratios = [scale * frobenius(block)]
    while True:
        ratio = ratios[-1]
        if ratio <= tolerances.stepwise_tol:
            stop_reason = STOP_TOLERANCE
            break
        if len(rows) >= tolerances.max_iterations:
            stop_reason = STOP_MAX_ITERATIONS
            break
        if len(ratios) > STAGNATION_STEPS and all(
            ratios[-j] > STAGNATION_FACTOR * ratios[-j - 1]
            for j in range(1, STAGNATION_STEPS + 1)
        ):
            stop_reason = STOP_STAGNATION
            break
        c = block / (2.0 * mass)
        frame = odd_exp(c) @ frame
        rows.append((len(rows), ratio, np.sqrt(2.0) * frobenius(c)))
        block = (frame[:n] * w) @ frame[n:].conj().T
        ratios.append(scale * frobenius(block))
    if rows:
        composite = frame @ spectrum.v.conj().T
        current = (frame * w) @ frame.conj().T
        current = 0.5 * (current + current.conj().T)
    else:
        composite, current = np.eye(grading.dim, dtype=complex), spectrum.matrix
    diagnostics = compute_diagnostics(composite, spectrum, grading, current)
    result = FWResult(composite, current, diagnostics)
    converged = stop_reason == STOP_TOLERANCE
    return result, StepwiseTrace(tuple(rows), converged, stop_reason)
