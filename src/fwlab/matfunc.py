"""Dense matrix-function kernels on Hermitian and unitary operands.

Every Hermitian kernel runs through the same backend, the eigendecomposition
by ``numpy.linalg.eigh``, which realizes the principal-branch convention
uniformly: the square root of a positive operator is the positive root (so
the root of the identity is the identity) and the logarithm of a unitary,
taken from its Hermitian Cayley transform, has eigenphases in (-pi, pi).
``odd_exp`` works from an SVD instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_FLOOR, frobenius
from .errors import (
    BranchCutProximity,
    NotPositiveSemidefinite,
    NotUnitary,
    SingularHamiltonian,
    SingularOperand,
)

# Default relative spectral-gap tolerance for inverse kernels.
GAP_RTOL = 1e-10

# Eigenvalues above -PSD_RTOL * ||A||_F count as nonnegative.
PSD_RTOL = 1e-12

# Minimum distance of a unitary eigenphase from the +-pi branch cut.
BRANCH_MARGIN = 1e-8

# Absolute Frobenius tolerance on ||U^H U - 1|| for logarithm inputs.
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralGapReport:
    """Smallest |eigenvalue| of a Hermitian operand and the gap verdict."""

    min_abs_eigenvalue: float
    is_definite: bool


def spectral_gap(h, gap_tol: float | None = None) -> SpectralGapReport:
    """Measure the spectral gap of a Hermitian matrix around zero.

    ``gap_tol`` defaults to GAP_RTOL * ||h||_F; ``is_definite`` reports
    whether the smallest |eigenvalue| clears it.
    """
    h = np.asarray(h, dtype=complex)
    if gap_tol is None:
        gap_tol = GAP_RTOL * max(frobenius(h), NORM_FLOOR)
    smallest = float(np.min(np.abs(np.linalg.eigvalsh(h))))
    return SpectralGapReport(smallest, bool(smallest >= gap_tol))


def _hermitize(a):
    return 0.5 * (a + a.conj().T)


def principal_sqrt(a, *, psd_rtol: float = PSD_RTOL) -> np.ndarray:
    """Principal (positive) square root of a Hermitian PSD matrix.

    Parameters
    ----------
    a : array_like
        Hermitian positive-semidefinite matrix.  Eigenvalues down to
        -psd_rtol * ||a||_F are tolerated and clamped to zero.

    Returns
    -------
    ndarray
        Hermitian PSD root R with R @ R = a to kernel accuracy.

    Raises
    ------
    NotPositiveSemidefinite
        If the smallest eigenvalue falls below the tolerance.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    floor = -psd_rtol * max(frobenius(a), NORM_FLOOR)
    if w[0] < floor:
        raise NotPositiveSemidefinite(
            f"smallest eigenvalue {w[0]:.3e} is below tolerance {floor:.3e}"
        )
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return _hermitize(r)


def inv_sqrt(a, *, gap_tol: float | None = None) -> np.ndarray:
    """Inverse principal square root of a Hermitian positive-definite matrix.

    Parameters
    ----------
    a : array_like
        Hermitian positive-definite matrix.
    gap_tol : float, optional
        Absolute eigenvalue floor.  Defaults to GAP_RTOL * ||a||_F.

    Returns
    -------
    ndarray
        Hermitian P with P @ a @ P = 1 to kernel accuracy.

    Raises
    ------
    SingularOperand
        If any eigenvalue lies below ``gap_tol``.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    if gap_tol is None:
        gap_tol = GAP_RTOL * max(frobenius(a), NORM_FLOOR)
    if w[0] < gap_tol:
        raise SingularOperand(
            f"smallest eigenvalue {w[0]:.3e} is below the gap tolerance {gap_tol:.3e}"
        )
    p = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return _hermitize(p)


def sign_operator(h, *, gap_tol: float | None = None) -> np.ndarray:
    """Matrix sign lambda = h @ inv_sqrt(h @ h) of a gapped Hermitian matrix.

    The result is a Hermitian involution whose +1 / -1 eigenspaces are the
    positive / negative spectral subspaces of ``h``.

    ``gap_tol`` applies to the eigenvalues of h @ h and defaults to
    GAP_RTOL * ||h @ h||_F.  Raises SingularHamiltonian when the spectral
    gap at zero is below it.
    """
    h = np.asarray(h, dtype=complex)
    try:
        p = inv_sqrt(h @ h, gap_tol=gap_tol)
    except SingularOperand as exc:
        raise SingularHamiltonian(f"no spectral gap at zero: {exc}") from exc
    return _hermitize(h @ p)


def unitary_log(u, *, unitary_tol: float = UNITARY_TOL,
                branch_margin: float = BRANCH_MARGIN) -> np.ndarray:
    """Hermitian generator S with u = exp(i S) and eigenvalues in (-pi, pi).

    A numerically unitary u is normal, so its Cayley transform
    T = i (1 - u)(1 + u)^(-1) is Hermitian with eigenvalues tan(theta / 2):
    one eigh T = Q diag(w) Q^H gives S = Q diag(2 arctan w) Q^H.  For an
    eigenphase within delta of +-pi the relative error of S grows like
    eps / delta (about 1e-12 at delta = 1e-4, 1e-8 near BRANCH_MARGIN).

    Raises
    ------
    NotUnitary
        If ||u^H u - 1||_F exceeds ``unitary_tol`` or is not finite.
    BranchCutProximity
        If any eigenphase lies within ``branch_margin`` of +-pi, where the
        principal branch is ill-defined, or 1 + u is singular.
    """
    u = np.asarray(u, dtype=complex)
    eye = np.eye(u.shape[0])
    defect = frobenius(u.conj().T @ u - eye)
    if not defect <= unitary_tol:
        raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {unitary_tol:.1e}")
    try:
        cayley = 1j * np.linalg.solve(eye + u, eye - u)
    except np.linalg.LinAlgError as exc:
        raise BranchCutProximity("1 + U is singular: eigenphase on the branch cut") from exc
    w, q = np.linalg.eigh(_hermitize(cayley))
    phases = 2.0 * np.arctan(w)
    margin = float(np.min(np.pi - np.abs(phases)))
    if margin < branch_margin:
        raise BranchCutProximity(f"eigenphase within {margin:.3e} of the +-pi branch cut")
    return _hermitize((q * phases) @ q.conj().T)


def odd_exp(c) -> np.ndarray:
    """Exponential of the odd anti-Hermitian generator [[0, c], [-c^H, 0]].

    One SVD c = P diag(s) Q^H of the square block gives the cosine-sine form
    [[P cos(s) P^H, P sin(s) Q^H], [-Q sin(s) P^H, Q cos(s) Q^H]].
    """
    p, s, qh = np.linalg.svd(np.asarray(c, dtype=complex))
    q = qh.conj().T
    cos, sin = np.cos(s), np.sin(s)
    left = np.vstack((p * cos, q * -sin)) @ p.conj().T
    right = np.vstack((p * sin, q * cos)) @ qh
    return np.hstack((left, right))
