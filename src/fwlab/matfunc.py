"""Dense matrix-function kernels on Hermitian and unitary operands.

A ``Spectrum`` is a Hermitian matrix with its ``numpy.linalg.eigh`` pair
(w, V).  Every Hermitian kernel takes a matrix or a Spectrum and returns
``apply(f)`` = V diag(f(w)) V^H, so one eigh of an operand serves them all.
This realizes the principal-branch convention uniformly: the square root of
a positive operator is the positive root, the sign of H comes from the
eigenvalues of H itself, and the logarithm of a unitary, taken from its
Hermitian Cayley transform, has eigenphases in (-pi, pi).  ``odd_exp``
works from an SVD instead.
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


def _hermitize(a):
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A Hermitian matrix with its eigenvalues ``w`` (ascending) and eigenvectors ``v``."""

    matrix: np.ndarray
    w: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, x) -> "Spectrum":
        """``x`` itself when it is a Spectrum, else one ``eigh`` of the matrix ``x``."""
        if isinstance(x, cls):
            return x
        x = np.asarray(x, dtype=complex)
        return cls(x, *np.linalg.eigh(x))

    def apply(self, f) -> np.ndarray:
        """Hermitian V diag(f(w)) V^H."""
        return _hermitize((self.v * f(self.w)) @ self.v.conj().T)


@dataclass(frozen=True)
class SpectralGapReport:
    """Smallest |eigenvalue| of a Hermitian operand and the gap verdict."""

    min_abs_eigenvalue: float
    is_definite: bool


def spectral_gap(h, gap_tol: float | None = None) -> SpectralGapReport:
    """Measure the spectral gap of a Hermitian matrix or Spectrum around zero.

    ``gap_tol`` defaults to GAP_RTOL * ||h||_F; ``is_definite`` reports
    whether the smallest |eigenvalue| clears it.
    """
    h = Spectrum.of(h)
    if gap_tol is None:
        gap_tol = GAP_RTOL * max(frobenius(h.matrix), NORM_FLOOR)
    smallest = float(np.min(np.abs(h.w)))
    return SpectralGapReport(smallest, bool(smallest >= gap_tol))


def principal_sqrt(a, *, psd_rtol: float = PSD_RTOL) -> np.ndarray:
    """Principal (positive) root R, R @ R = a, of a Hermitian PSD matrix or Spectrum.

    Eigenvalues down to -psd_rtol * ||a||_F are rounding noise and clamp to
    zero; below that NotPositiveSemidefinite is raised.
    """
    a = Spectrum.of(a)
    floor = -psd_rtol * max(frobenius(a.matrix), NORM_FLOOR)
    if a.w[0] < floor:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {a.w[0]:.3e} "
                                      f"is below tolerance {floor:.3e}")
    return a.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))


def inv_sqrt(a) -> np.ndarray:
    """Inverse principal root P, P @ a @ P = 1, of a Hermitian PD matrix or Spectrum.

    Raises SingularOperand if an eigenvalue lies below GAP_RTOL * ||a||_F.
    """
    a = Spectrum.of(a)
    gap_tol = GAP_RTOL * max(frobenius(a.matrix), NORM_FLOOR)
    if a.w[0] < gap_tol:
        raise SingularOperand(f"smallest eigenvalue {a.w[0]:.3e} "
                              f"is below the gap tolerance {gap_tol:.3e}")
    return a.apply(lambda w: 1.0 / np.sqrt(w))


def sign_operator(h, *, gap_tol: float | None = None) -> np.ndarray:
    """Matrix sign V diag(sign w) V^H of a gapped Hermitian matrix or Spectrum.

    The result is a Hermitian involution whose +1 / -1 eigenspaces are the
    positive / negative spectral subspaces of ``h``; taken from eigh of h,
    not of h @ h, its error grows like eps / delta at relative gap delta.
    Raises SingularHamiltonian when min w^2 is below ``gap_tol``, which
    defaults to GAP_RTOL * ||w^2||_2 = GAP_RTOL * ||h @ h||_F.
    """
    h = Spectrum.of(h)
    squares = h.w ** 2
    if gap_tol is None:
        gap_tol = GAP_RTOL * max(float(np.linalg.norm(squares)), NORM_FLOOR)
    if squares.min() < gap_tol:
        raise SingularHamiltonian(f"no spectral gap at zero: smallest eigenvalue "
                                  f"{squares.min():.3e} is below the gap tolerance {gap_tol:.3e}")
    return h.apply(np.sign)


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
        If u has a non-finite entry or ||u^H u - 1||_F exceeds ``unitary_tol``.
    BranchCutProximity
        If any eigenphase lies within ``branch_margin`` of +-pi, where the
        principal branch is ill-defined, or 1 + u is singular.
    """
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        raise NotUnitary("U has non-finite entries")
    eye = np.eye(u.shape[0])
    defect = frobenius(u.conj().T @ u - eye)
    if not defect <= unitary_tol:
        raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {unitary_tol:.1e}")
    try:
        cayley = 1j * np.linalg.solve(eye + u, eye - u)
    except np.linalg.LinAlgError as exc:
        raise BranchCutProximity("1 + U is singular: eigenphase on the branch cut") from exc
    t = Spectrum.of(_hermitize(cayley))
    margin = float(np.min(np.pi - np.abs(2.0 * np.arctan(t.w))))
    if margin < branch_margin:
        raise BranchCutProximity(f"eigenphase within {margin:.3e} of the +-pi branch cut")
    return t.apply(lambda w: 2.0 * np.arctan(w))


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
