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
also accept its ``Spectrum``.

A transform of this family also has a Hermitian generator S = -i log U
that is odd (anticommutes with beta).  Multi-step schemes produce unitary
transforms whose generators fail that condition; ``exponent_oddness``
quantifies the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import (NORM_FLOOR, Grading, even_projection, frobenius, odd_norm_ratio,
                      relative_norm, require_hermitian)
from .errors import DegenerateFactor, FWLabError, NotUnitary, SingularOperand
from .matfunc import (UNITARY_TOL, Spectrum, check_gap, odd_rotation, require_gap,
                      sign_operator, unitary_log)


def hamiltonian_spectrum(h, grading: Grading) -> Spectrum:
    """Spectrum of a Hamiltonian of the grading's shape; a matrix must be finite and Hermitian."""
    if isinstance(h, Spectrum):
        grading.check(h.matrix)
        return h
    h = require_hermitian(grading.check(np.asarray(h, dtype=complex)), "Hamiltonian")
    return Spectrum(h, *np.linalg.eigh(h))


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        if transformed is None:
            transformed = u @ h.matrix @ u.conj().T
        diagnostics = compute_diagnostics(u, h, grading, transformed)
        return (cls if unitary else _Approximate)(u, transformed, diagnostics)

    def __post_init__(self):
        defect = self.diagnostics.unitarity_residual
        if defect > UNITARY_TOL:
            raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {UNITARY_TOL:.1e}")


class _Approximate(FWResult):
    def __post_init__(self):
        """No unitarity check: a result of ``FWResult.of(..., unitary=False)``."""


def eriksen_condition_residual(u, grading: Grading) -> float:
    """Relative Frobenius residual of the adjoint condition beta U = U^H beta."""
    u = grading.check(np.asarray(u, dtype=complex))
    signs = grading.signs
    return relative_norm(signs[:, None] * u - u.conj().T * signs, u)


def exponent_oddness(u, grading: Grading) -> tuple[float, float]:
    """Oddness residual of the generator S = -i log U, and 0.0.

    The first entry is ||(S + beta S beta) / 2||_F / max(||S||_F, floor), the
    relative weight of the even (block-diagonal) component of S.  The second,
    S's Hermiticity residual, is 0.0 bit for bit, since ``unitary_log`` returns
    a hermitized S.  Raises whatever ``unitary_log`` raises for unusable input.
    """
    s = unitary_log(grading.check(np.asarray(u, dtype=complex)))
    return relative_norm(even_projection(s, grading), s), 0.0


def compute_diagnostics(u, h, grading: Grading, transformed) -> DiagnosticSet:
    """Evaluate the full diagnostic set for a transform of ``h``.

    ``spectrum_drift`` is the largest sorted-eigenvalue displacement between
    ``h`` and ``transformed`` = u h u^H, relative to ||h||_F.
    """
    u = grading.check(np.asarray(u, dtype=complex))
    h = hamiltonian_spectrum(h, grading)
    unitarity = frobenius(u.conj().T @ u - np.eye(grading.dim))
    condition = eriksen_condition_residual(u, grading)
    blockness = odd_norm_ratio(transformed, grading)
    spectrum_after = np.linalg.eigvalsh(0.5 * (transformed + transformed.conj().T))
    drift = float(np.max(np.abs(spectrum_after - h.w))) / max(frobenius(h.matrix), NORM_FLOOR)
    try:
        s = unitary_log(u, defect=unitarity)
        odd_residual = relative_norm(even_projection(s, grading), s)
    except FWLabError:
        odd_residual = None
    return DiagnosticSet(unitarity, condition, blockness, odd_residual, drift)


def eriksen_transform(h, grading: Grading) -> FWResult:
    """Build the transform as the direct rotation of the positive eigenvectors of ``h``.

    One n x n solve gives T^H = X^(-H) Y^H, one n x n SVD its angles.
    SingularHamiltonian comes from the sign operator's gap rule;
    SingularOperand when H has not n positive eigenvalues, X is singular, or
    min cos^2 theta, the smallest eigenvalue of K, fails ``check_gap``.
    """
    h = require_gap(hamiltonian_spectrum(h, grading))
    n = grading.upper_dim
    positive = h.v[:, h.w > 0.0]
    if positive.shape[1] != n:
        raise SingularOperand(f"H has {positive.shape[1]} positive eigenvalues, "
                              f"the upper block {n}")
    x, y = positive[:n], positive[n:]
    try:
        p, tan, qh = np.linalg.svd(np.linalg.solve(x.conj().T, y.conj().T))
    except np.linalg.LinAlgError as exc:
        raise SingularOperand("the upper block of the positive eigenvectors is singular") from exc
    theta = np.arctan(tan)
    check_gap(np.cos(theta) ** 2, SingularOperand, "smallest cos^2 theta")
    return FWResult.of(odd_rotation(p, theta, qh), h, grading)


def eriksen_transform_alt(h, grading: Grading) -> FWResult:
    """Polar-form variant U = F (F^H F)^(-1/2) with F = 1 + beta lambda.

    Algebraically identical to ``eriksen_transform`` but coded on an
    independent path: U is the unitary polar factor P Q^H of the SVD
    F = P Sigma Q^H.  Since F^H F = 4 K, (Sigma / 2)^2 are the values
    cos^2 theta that ``eriksen_transform`` tests, and DegenerateFactor is
    raised when they fail the same ``check_gap``, so both routes refuse the
    same models.
    """
    h = hamiltonian_spectrum(h, grading)
    lam = sign_operator(h)
    factor = np.eye(grading.dim, dtype=complex) + grading.signs[:, None] * lam
    p, sigma, qh = np.linalg.svd(factor)
    check_gap((0.5 * sigma) ** 2, DegenerateFactor, "smallest (sigma / 2)^2 of 1 + beta*lambda")
    return FWResult.of(p @ qh, h, grading)
