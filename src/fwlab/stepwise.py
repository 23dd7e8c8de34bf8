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
stacked SVD per step, and returns them undiagnosed, as the other routes do;
``stepwise_fw`` is its stack of one; it equals a report's row only at one BLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_FLOOR, Grading, adjoint, as_number, frobenius, require_mass
from .eriksen import FWResult, hamiltonian_spectrum
from .matfunc import Spectrum, _hermitize, odd_exp

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
    cap on steps, stored as a Python float and int, each read by ``as_number``;
    ValueError unless 0 < stepwise_tol < inf and max_iterations is an integer >= 0.
    """

    stepwise_tol: float = 1e-8
    max_iterations: int = 50

    def __post_init__(self):
        tol = as_number(self.stepwise_tol, "tol", rule="positive and finite")
        cap = as_number(self.max_iterations, "max_iterations", integer=True)
        if not 0.0 < tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        if not cap >= 0:
            raise ValueError(f"max_iterations must be nonnegative, got {cap}")
        object.__setattr__(self, "stepwise_tol", float(tol))
        object.__setattr__(self, "max_iterations", int(cap))


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


def stepwise_lockstep(h: Spectrum, grading: Grading, masses,
                      tolerances: ToleranceConfig = ToleranceConfig()):
    """``stepwise_fw`` of each (H, mass), all models stepped at once, undiagnosed:
    (U, U H U^H, traces), U and U H U^H stacked in model order.

    ``h`` is the stacked Spectrum of the Hamiltonians.  Each step is one
    stacked SVD and one set of stacked products over the models still
    running; numpy runs the same LAPACK and BLAS call on each slice, so each
    run is bit for bit the run alone.  A model leaves the stack when its own
    rule fires; a run of zero steps keeps the exact identity and H.
    """
    if len(masses) != len(h.w):
        raise ValueError(f"{len(h.w)} Hamiltonians need as many masses, got {len(masses)}")
    grading.check(h.matrix)
    n = grading.upper_dim
    live = list(range(len(h.w)))  # the model in each slice of the stack
    w, frame, block = h.w[:, None], h.v, h.matrix[:, :n, n:]
    odd = frobenius(block)
    for mass, norm in zip(masses, odd.tolist()):
        require_mass(mass, 2 ** 0.5 * norm, "odd part")  # ||O||_F = sqrt(2) ||B||_F
    twice_mass = 2.0 * np.array(masses, dtype=float).reshape(-1, 1, 1)  # not object for 2**70
    scales = np.sqrt(2.0) / np.maximum(frobenius(h.matrix), NORM_FLOOR)
    ratios = [[ratio] for ratio in (scales * odd).tolist()]
    rows, reasons = [[] for _ in live], [None] * len(live)
    final = np.empty_like(frame)  # each model's frame F when it leaves
    while live:
        for slot, i in enumerate(live):
            reasons[i] = _stop_reason(ratios[i], len(rows[i]), tolerances)
            if reasons[i] is not None:
                final[i] = frame[slot]
        keep = [slot for slot, i in enumerate(live) if reasons[i] is None]
        if len(keep) < len(live):  # a copy per step would slow a stack of one
            live = [live[slot] for slot in keep]
            w, frame, block, twice_mass = w[keep], frame[keep], block[keep], twice_mass[keep]
            scales = scales[keep]
        if not live:
            break
        c = block / twice_mass
        frame = odd_exp(c) @ frame
        block = (frame[:, :n] * w) @ frame[:, n:].conj().swapaxes(1, 2)
        norms = frobenius(c)  # c is finite, as odd_exp took it, but its square may overflow
        for k in np.flatnonzero(~np.isfinite(norms)):
            norms[k] = (scale := np.max(np.abs(c[k]))) * frobenius(c[k] / scale)
        exponents = (np.sqrt(2.0) * norms).tolist()
        for i, exponent, ratio in zip(live, exponents, (scales * frobenius(block)).tolist()):
            rows[i].append((len(rows[i]), ratios[i][-1], exponent))
            ratios[i].append(ratio)
    # U = F V^H, and U H U^H the Hermitian part of F diag(w) F^H
    transformed = _hermitize((final * h.w[:, None]) @ adjoint(final))
    u = final @ adjoint(h.v)
    del final
    for i, steps in enumerate(rows):
        if not steps:
            u[i], transformed[i] = np.eye(grading.dim), h.matrix[i]
    traces = [StepwiseTrace(tuple(steps), reason == STOP_TOLERANCE, reason)
              for steps, reason in zip(rows, reasons)]
    return u, transformed, traces


def stepwise_fw(h, grading: Grading, mass: float,
                tolerances: ToleranceConfig = ToleranceConfig()) -> tuple[FWResult, StepwiseTrace]:
    """Run the iterative scheme until tolerance, stagnation, or the cap.

    ``h`` is a finite Hermitian Hamiltonian or its Spectrum, ``mass`` the positive finite
    m of every exponent, over which ||O||_F must stay finite (``require_mass``), and
    ``tolerances`` the stopping rule.  Non-convergence is a reported outcome, not an error:
    the result always carries the composite transform actually reached.  This is
    ``stepwise_lockstep`` on a stack of one.
    """
    h = hamiltonian_spectrum(h, grading)
    u, transformed, [trace] = stepwise_lockstep(h[None], grading, [mass], tolerances)
    return FWResult.of(u[0], h, grading, transformed[0]), trace
