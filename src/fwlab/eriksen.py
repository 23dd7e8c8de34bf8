"""Single-shot construction of the exact block-diagonalizing transform.

With lambda = H / sqrt(H^2) = V sign(w) V^H from one eigh of H the transform

    U = (1/2) (1 + beta lambda) [1 + (beta lambda + lambda beta - 2) / 4]^(-1/2)

is unitary, satisfies the adjoint condition beta U = U^H beta, maps lambda
to beta, and brings U H U^H to block-diagonal form with the positive part
of the spectrum in the upper block.  The algebraically equivalent polar
form

    U = (1 + beta lambda) [(1 + beta lambda)^H (1 + beta lambda)]^(-1/2) = P Q^H,

the polar factor of the SVD 1 + beta lambda = P Sigma Q^H, is coded
separately as a cross-check.  Both exist whenever 1 + beta lambda is
regular.  Entry points taking H also accept its ``Spectrum``.

A transform of this family also has a Hermitian generator S = -i log U
that is odd (anticommutes with beta).  Multi-step schemes produce unitary
transforms whose generators fail that condition; ``exponent_oddness``
quantifies the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import (
    Grading,
    check_hamiltonian,
    frobenius,
    make_beta,
    odd_norm_ratio,
    even_projection,
    relative_norm,
)
from .errors import DegenerateFactor, DimensionMismatch, FWLabError, NotUnitary
from .matfunc import Spectrum, inv_sqrt, sign_operator, unitary_log

# Absolute Frobenius tolerance on ||U^H U - 1|| for accepted transforms.
UNITARITY_TOL = 1e-10

# Minimum singular value of 1 + beta*lambda accepted by the polar form.
DEGENERATE_TOL = 1e-10

METHOD_ERIKSEN = "eriksen"
METHOD_ERIKSEN_ALT = "eriksenalt"
METHOD_EXACT_CASE = "exactcase"
METHOD_STEPWISE = "stepwise"
METHOD_WEAK_FIELD = "weakfield"
METHOD_TAGS = (
    METHOD_ERIKSEN,
    METHOD_ERIKSEN_ALT,
    METHOD_EXACT_CASE,
    METHOD_STEPWISE,
    METHOD_WEAK_FIELD,
)


def hamiltonian_spectrum(h, grading: Grading) -> Spectrum:
    """Spectrum.of a Hamiltonian argument whose matrix passes check_hamiltonian first."""
    check_hamiltonian(h.matrix if isinstance(h, Spectrum) else h, grading)
    return Spectrum.of(h)


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

    Construction verifies unitarity: the diagnostics' ||U^H U - 1||_F must
    not exceed UNITARITY_TOL.
    """

    transform: np.ndarray
    transformed_hamiltonian: np.ndarray
    method_tag: str
    diagnostics: DiagnosticSet

    @classmethod
    def of(cls, u, h, grading: Grading, method_tag: str) -> "FWResult":
        """Result for transform ``u`` of ``h``, with u h u^H built once."""
        h = hamiltonian_spectrum(h, grading)
        transformed = u @ h.matrix @ u.conj().T
        return cls(u, transformed, method_tag,
                   compute_diagnostics(u, h, grading, transformed))

    def __post_init__(self):
        if self.method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")
        defect = self.diagnostics.unitarity_residual
        if defect > UNITARITY_TOL:
            raise NotUnitary(f"{self.method_tag} transform: ||U^H U - 1||_F = {defect:.3e}")


def eriksen_condition_residual(u, grading: Grading) -> float:
    """Relative Frobenius residual of the adjoint condition beta U = U^H beta."""
    u = grading.check(np.asarray(u, dtype=complex))
    beta = make_beta(grading)
    return relative_norm(beta @ u - u.conj().T @ beta, u)


def exponent_oddness(u, grading: Grading) -> tuple[float, float]:
    """Oddness and Hermiticity residuals of the generator S = -i log U.

    Returns ``(odd_residual, hermiticity_residual)`` where the first is
    ||(S + beta S beta) / 2||_F / max(||S||_F, floor), i.e. the relative
    weight of the even (block-diagonal) component of S, and the second is
    ||S - S^H||_F / max(||S||_F, floor).

    Raises whatever ``unitary_log`` raises for unusable input.
    """
    u = grading.check(np.asarray(u, dtype=complex))
    s = unitary_log(u)
    odd_residual = relative_norm(even_projection(s, grading), s)
    hermiticity_residual = relative_norm(s - s.conj().T, s)
    return odd_residual, hermiticity_residual


def transform_state(u, psi) -> np.ndarray:
    """Apply a transform to a state vector; norms are preserved for unitary u."""
    u = np.asarray(u, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (u.shape[1],):
        raise DimensionMismatch(
            f"state of shape {psi.shape} does not fit transform of shape {u.shape}"
        )
    return u @ psi


def compute_diagnostics(u, h, grading: Grading, transformed=None) -> DiagnosticSet:
    """Evaluate the full diagnostic set for a transform of ``h``.

    ``spectrum_drift`` is the largest sorted-eigenvalue displacement between
    ``h`` and u h u^H, relative to ||h||_F; ``transformed`` is u h u^H if known.
    """
    u = grading.check(np.asarray(u, dtype=complex))
    h = hamiltonian_spectrum(h, grading)
    if transformed is None:
        transformed = u @ h.matrix @ u.conj().T
    unitarity = frobenius(u.conj().T @ u - np.eye(grading.dim))
    condition = eriksen_condition_residual(u, grading)
    blockness = odd_norm_ratio(transformed, grading)
    spectrum_after = np.linalg.eigvalsh(0.5 * (transformed + transformed.conj().T))
    drift = float(np.max(np.abs(spectrum_after - h.w))) / max(frobenius(h.matrix), 1e-300)
    try:
        odd_residual, _ = exponent_oddness(u, grading)
    except FWLabError:
        odd_residual = None
    return DiagnosticSet(unitarity, condition, blockness, odd_residual, drift)


def one_shot_transform(lam, beta) -> np.ndarray:
    """U = (1/2)(1 + beta lambda) K^(-1/2), K = 1 + (beta lambda + lambda beta - 2)/4."""
    eye = np.eye(beta.shape[0], dtype=complex)
    core = eye + 0.25 * (beta @ lam + lam @ beta - 2.0 * eye)
    return 0.5 * (eye + beta @ lam) @ inv_sqrt(core)


def eriksen_transform(h, grading: Grading, *, gap_tol: float | None = None) -> FWResult:
    """Build the transform from the sign operator of ``h``.

    Evaluates U = (1/2)(1 + beta lambda) K^(-1/2) with
    K = 1 + (beta lambda + lambda beta - 2)/4; K equals ((beta + lambda)/2)^2,
    so it is positive semidefinite and regular exactly when 1 + beta lambda
    is.  SingularHamiltonian propagates from the sign kernel; a degenerate
    K surfaces as SingularOperand from the root kernel.
    """
    h = hamiltonian_spectrum(h, grading)
    u = one_shot_transform(sign_operator(h, gap_tol=gap_tol), make_beta(grading))
    return FWResult.of(u, h, grading, METHOD_ERIKSEN)


def eriksen_transform_alt(h, grading: Grading, *, gap_tol: float | None = None) -> FWResult:
    """Polar-form variant U = F (F^H F)^(-1/2) with F = 1 + beta lambda.

    Algebraically identical to ``eriksen_transform`` but coded on an
    independent path: U is the unitary polar factor P Q^H of the SVD
    F = P Sigma Q^H.  Raises DegenerateFactor when the smallest singular
    value of F drops below DEGENERATE_TOL.
    """
    h = hamiltonian_spectrum(h, grading)
    lam = sign_operator(h, gap_tol=gap_tol)
    factor = np.eye(grading.dim, dtype=complex) + make_beta(grading) @ lam
    p, sigma, qh = np.linalg.svd(factor)
    if sigma[-1] < DEGENERATE_TOL:
        raise DegenerateFactor(f"1 + beta*lambda has smallest singular value {sigma[-1]:.3e}")
    return FWResult.of(p @ qh, h, grading, METHOD_ERIKSEN_ALT)
