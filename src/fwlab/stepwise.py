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
``stepwise_lockstep`` steps a stack of models of one shape together, one
stacked SVD per step; ``stepwise_fw`` is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import NORM_FLOOR, Grading, frobenius, require_mass
from .eriksen import FWResult, hamiltonian_spectrum
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


def _stop_reason(ratios, steps: int, tolerances: ToleranceConfig):
    """The rule that ends a run after ``steps`` steps with odd ratios ``ratios``, or None."""
    stalled = len(ratios) > STAGNATION_STEPS and all(
        ratios[-j] > STAGNATION_FACTOR * ratios[-j - 1] for j in range(1, STAGNATION_STEPS + 1))
    return (STOP_TOLERANCE if ratios[-1] <= tolerances.stepwise_tol
            else STOP_MAX_ITERATIONS if steps >= tolerances.max_iterations
            else STOP_STAGNATION if stalled else None)


def _finish(spectrum, grading: Grading, frame, rows, stop_reason):
    """(FWResult, StepwiseTrace) of a run that ended at ``frame`` = F."""
    if rows:
        composite = frame @ spectrum.v.conj().T
        current = (frame * spectrum.w) @ frame.conj().T
        current = 0.5 * (current + current.conj().T)
    else:
        composite, current = np.eye(grading.dim, dtype=complex), spectrum.matrix
    trace = StepwiseTrace(tuple(rows), stop_reason == STOP_TOLERANCE, stop_reason)
    return FWResult.of(composite, spectrum, grading, current), trace


def stepwise_lockstep(hamiltonians, grading: Grading, masses,
                      tolerances: ToleranceConfig = ToleranceConfig()):
    """``stepwise_fw`` of each (H or Spectrum, mass), all models stepped at once.

    Each step is one stacked SVD and one set of stacked products over the
    models still running; numpy runs the same LAPACK and BLAS call on each
    slice, so each run is bit for bit the run alone.  When a model's own rule
    fires it leaves the stack and (index, finish) is yielded; ``finish()``
    gives its (FWResult, StepwiseTrace).
    """
    for mass in masses:
        require_mass(mass)
    spectra = [hamiltonian_spectrum(h, grading) for h in hamiltonians]
    if len(masses) != len(spectra):
        raise ValueError(f"{len(spectra)} Hamiltonians need as many masses, got {len(masses)}")
    n = grading.upper_dim
    live = list(range(len(spectra)))  # the model in each slice of the stack
    w = np.stack([s.w for s in spectra])[:, None]
    frame = np.stack([s.v for s in spectra])
    block = np.stack([s.matrix[:n, n:] for s in spectra])
    twice_mass = 2.0 * np.reshape(masses, (-1, 1, 1))
    scales = [np.sqrt(2.0) / max(frobenius(s.matrix), NORM_FLOOR) for s in spectra]
    ratios = [[scale * frobenius(b)] for scale, b in zip(scales, block)]
    rows = [[] for _ in spectra]
    while True:
        reasons = [_stop_reason(ratios[i], len(rows[i]), tolerances) for i in live]
        for slot, (i, reason) in enumerate(zip(live, reasons)):
            if reason is not None:
                yield i, partial(_finish, spectra[i], grading, frame[slot], rows[i], reason)
        keep = [slot for slot, reason in enumerate(reasons) if reason is None]
        if not keep:
            return
        if len(keep) < len(live):  # a copy per step would slow a stack of one
            live = [live[slot] for slot in keep]
            w, frame, block, twice_mass = w[keep], frame[keep], block[keep], twice_mass[keep]
        c = block / twice_mass
        frame = odd_exp(c) @ frame
        block = (frame[:, :n] * w) @ frame[:, n:].conj().swapaxes(1, 2)
        for slot, i in enumerate(live):
            rows[i].append((len(rows[i]), ratios[i][-1], np.sqrt(2.0) * frobenius(c[slot])))
            ratios[i].append(scales[i] * frobenius(block[slot]))


def stepwise_fw(h, grading: Grading, mass: float,
                tolerances: ToleranceConfig = ToleranceConfig()) -> tuple[FWResult, StepwiseTrace]:
    """Run the iterative scheme until tolerance, stagnation, or the cap.

    ``h`` is a finite Hermitian Hamiltonian or its Spectrum, ``mass`` the
    positive finite m of every exponent, and ``tolerances`` the stopping
    rule.  Non-convergence is a reported outcome, not an error: the result
    always carries the composite transform actually reached.  This is
    ``stepwise_lockstep`` on a stack of one.
    """
    [(_, finish)] = stepwise_lockstep([h], grading, [mass], tolerances)
    return finish()
