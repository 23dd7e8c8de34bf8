"""Single-shot construction of the exact block-diagonalizing transform.

With lambda = H / sqrt(H^2) = V sign(w) V^H from one eigh of H the transform

    U = (1/2) (1 + beta lambda) K^(-1/2),   K = 1 + (beta lambda + lambda beta - 2) / 4,

is unitary, satisfies the adjoint condition beta U = U^H beta, maps lambda
to beta, and brings U H U^H to block-diagonal form with the positive part
of the spectrum in the upper block.  That identity defines U; the code
builds it from the same eigh as the direct rotation of Davis and Kahan
(SIAM J. Numer. Anal. 7, 1 (1970)).  The positive eigenvectors [X; Y] span
the graph of T = Y X^(-1); with T^H = P diag(tan theta) Q^H, U is the odd
rotation exp [[0, C], [-C^H, 0]], C = P diag(theta) Q^H.  K has the
eigenvalues cos^2 theta_i, each twice, so U exists exactly when X is
regular.  The polar form U = P Q^H of the SVD 1 + beta lambda = P Sigma Q^H
is coded separately from lambda as a cross-check.  Entry points taking H
also accept its ``Spectrum``.  Each route runs on a stack of models too, one
LAPACK call per kernel, and ``diagnose`` measures a stack as one.

A transform of this family also has a Hermitian generator S = -i log U
that is odd (anticommutes with beta).  Multi-step schemes produce unitary
transforms whose generators fail that condition; ``exponent_oddness``
quantifies the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (NORM_FLOOR, Grading, adjoint, even_projection, frobenius, odd_norm_ratio,
                      relative_norm)
from .errors import DegenerateFactor, FWLabError, NotUnitary, SingularOperand
from .matfunc import (UNITARY_TOL, Slices, Spectrum, _hermitize, check_gap, odd_rotation,
                      require_gap, unitary_log)


def hamiltonian_spectrum(h, grading: Grading) -> Spectrum:
    """Spectrum of a Hamiltonian of the grading's shape; a matrix must be finite and Hermitian."""
    grading.check(h.matrix if isinstance(h, Spectrum) else h)
    return Spectrum.of(h, "Hamiltonian")


@dataclass(frozen=True)
class DiagnosticSet:
    """Residuals attached to a produced transform.

    All entries are nonnegative; ``exponent_odd_residual`` is None when the
    principal logarithm of the transform is unavailable (branch-cut
    proximity or loss of unitarity).
    """

    unitarity_residual: float
    eriksen_condition_residual: float
    block_diagonality: float
    exponent_odd_residual: float | None
    spectrum_drift: float

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if value is not None and not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class FWResult:
    """A produced transform together with the transformed Hamiltonian.

    Construction verifies unitarity: the diagnostics' ||U^H U - 1||_F must not exceed
    UNITARY_TOL, save for ``of(..., unitary=False)``, which the weak-field transform,
    unitary only as far as its approximate root is exact, uses to report its defect.
    """

    transform: np.ndarray
    transformed_hamiltonian: np.ndarray
    diagnostics: DiagnosticSet

    @classmethod
    def of(cls, u, h, grading: Grading, transformed=None, *, unitary=True) -> "FWResult":
        """Result for transform ``u`` of ``h``; u h u^H is built once unless ``transformed``."""
        h = hamiltonian_spectrum(h, grading)
        u = grading.check(np.asarray(u, dtype=complex))
        if transformed is None:
            transformed = u @ h.matrix @ adjoint(u)
        return diagnose(Slices(1), h[None], u[None], transformed[None], grading, unitary)[0]

    def __post_init__(self):
        defect = self.diagnostics.unitarity_residual
        if defect > UNITARY_TOL:
            raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {UNITARY_TOL:.1e}")


class _Approximate(FWResult):
    def __post_init__(self):
        """No unitarity check: a result of ``FWResult.of(..., unitary=False)``."""


def diagnose(slices: Slices, h, u, transformed, grading: Grading, unitary=True) -> list:
    """FWResults of stacks ``h`` (a Spectrum), ``u`` and ``transformed``, in slice order; a slice
    failing the NotUnitary gate (unless not ``unitary``) leaves ``slices``."""
    diagnostics, results = compute_diagnostics(u, h, grading, transformed), []
    kind = FWResult if unitary else _Approximate
    slices.gate(lambda slot: results.append(kind(u[slot], transformed[slot], diagnostics[slot])))
    return results


def _alone(route, h, grading: Grading, unitary=True) -> FWResult:
    """FWResult of ``route(slices, stack of H)`` -> (H, U, U H U^H) stacks on one model."""
    h, u, transformed = route(Slices(1), hamiltonian_spectrum(h, grading)[None])
    return FWResult.of(u[0], h[0], grading, transformed[0], unitary=unitary)


def eriksen_condition_residual(u, grading: Grading):
    """Relative Frobenius residual of the adjoint condition beta U = U^H beta, of each slice
    on a stack."""
    u = grading.check(np.asarray(u, dtype=complex))
    signs = grading.signs
    return relative_norm(signs[:, None] * u - adjoint(u) * signs, u)


def exponent_oddness(u, grading: Grading) -> tuple[float, float]:
    """Oddness residual of the generator S = -i log U, and 0.0.

    The first entry is ||(S + beta S beta) / 2||_F / max(||S||_F, floor), the
    relative weight of the even (block-diagonal) component of S.  The second,
    S's Hermiticity residual, is 0.0 bit for bit, since ``unitary_log`` returns
    a hermitized S.  Raises whatever ``unitary_log`` raises for unusable input.
    """
    s = unitary_log(grading.check(np.asarray(u, dtype=complex)))
    return relative_norm(even_projection(s, grading), s), 0.0


def compute_diagnostics(u, h, grading: Grading, transformed):
    """Evaluate the full diagnostic set for a transform of ``h``.

    ``spectrum_drift`` is the largest sorted-eigenvalue displacement between
    ``h`` and ``transformed`` = u h u^H, relative to ||h||_F.  On stacks (``h``
    a stacked Spectrum) it gives a list, each norm taken on its own slice.
    """
    if np.ndim(u) == 2:
        return compute_diagnostics(grading.check(np.asarray(u, dtype=complex))[None],
                                   hamiltonian_spectrum(h, grading)[None], grading,
                                   np.asarray(transformed)[None])[0]
    gram = adjoint(u) @ u
    gram -= np.eye(grading.dim)
    unitarity = frobenius(gram).tolist()
    del gram
    condition = eriksen_condition_residual(u, grading).tolist()
    blockness = odd_norm_ratio(transformed, grading).tolist()
    after = np.linalg.eigvalsh(_hermitize(transformed))
    drift = (np.max(np.abs(after - h.w), axis=-1)
             / np.maximum(frobenius(h.matrix), NORM_FLOOR)).tolist()
    slices = Slices(len(u))
    try:
        s = unitary_log(u, defect=unitarity, slices=slices)
        oddness = dict(zip(slices.index, relative_norm(even_projection(s, grading), s).tolist()))
    except FWLabError:
        oddness = {}
    return [DiagnosticSet(*values, oddness.get(slot), drift[slot])
            for slot, values in enumerate(zip(unitarity, condition, blockness))]


def eriksen_transform(h, grading: Grading, slices: Slices | None = None):
    """Build the transform as the direct rotation of the positive eigenvectors of ``h``.

    One n x n solve gives T^H = X^(-H) Y^H, one n x n SVD its angles.
    SingularHamiltonian comes from the sign operator's gap rule;
    SingularOperand when H has not n positive eigenvalues, X is singular, or
    min cos^2 theta, the smallest eigenvalue of K, fails ``check_gap``.  With
    ``slices``, (H, U, U H U^H) stacks of a stacked Spectrum ``h``.
    """
    if slices is None:
        return _alone(lambda slices, h: eriksen_transform(h, grading, slices), h, grading)
    n = grading.upper_dim
    h, = slices.gate(lambda slot: require_gap(h[slot]), h)

    def upper(slot):
        count = int(np.count_nonzero(h.w[slot] > 0.0))
        if count != n:
            raise SingularOperand(f"H has {count} positive eigenvalues, the upper block {n}")

    h, = slices.gate(upper, h)
    # the positive eigenvectors [X; Y] are the last n columns, as eigh sorts w
    t, h = slices.solve(adjoint(h.v[:, :n, n:]), adjoint(h.v[:, n:, n:]), SingularOperand,
                        "the upper block of the positive eigenvectors is singular", h)
    p, tan, qh = np.linalg.svd(t)
    theta = np.arctan(tan)
    cos2 = np.cos(theta) ** 2
    h, p, theta, qh = slices.gate(
        lambda slot: check_gap(cos2[slot], SingularOperand, "smallest cos^2 theta"),
        h, p, theta, qh)
    u = odd_rotation(p, theta, qh)
    del p, qh
    return h, u, u @ h.matrix @ adjoint(u)


def eriksen_transform_alt(h, grading: Grading, slices: Slices | None = None):
    """Polar-form variant U = F (F^H F)^(-1/2) with F = 1 + beta lambda.

    Algebraically identical to ``eriksen_transform`` but coded on an
    independent path: U is the unitary polar factor P Q^H of the SVD
    F = P Sigma Q^H.  Since F^H F = 4 K, (Sigma / 2)^2 are the values
    cos^2 theta that ``eriksen_transform`` tests, and DegenerateFactor is
    raised when they fail the same ``check_gap``, so both routes refuse the
    same models.  ``slices`` as for ``eriksen_transform``.
    """
    if slices is None:
        return _alone(lambda slices, h: eriksen_transform_alt(h, grading, slices), h, grading)
    h, = slices.gate(lambda slot: require_gap(h[slot]), h)
    factor = grading.signs[:, None] * h.apply(np.sign)  # lambda, the sign operator
    factor += np.eye(grading.dim, dtype=complex)
    p, sigma, qh = np.linalg.svd(factor)
    del factor
    quarter = (0.5 * sigma) ** 2
    h, p, qh = slices.gate(lambda slot: check_gap(
        quarter[slot], DegenerateFactor, "smallest (sigma / 2)^2 of 1 + beta*lambda"), h, p, qh)
    u = p @ qh
    del p, qh
    return h, u, u @ h.matrix @ adjoint(u)
