"""Dense matrix-function kernels on Hermitian and unitary operands.

A ``Spectrum`` is a Hermitian matrix with its ``numpy.linalg.eigh`` pair
(w, V).  Every Hermitian kernel takes a matrix or a Spectrum and returns
``apply(f)`` = V diag(f(w)) V^H, so one eigh of an operand serves them all.
This realizes the principal-branch convention uniformly: the inverse root
of a positive operator is the positive one, the sign of H comes from the
eigenvalues of H itself, and the logarithm of a unitary, taken from its
Hermitian Cayley transform, has eigenphases in (-pi, pi).  ``odd_rotation``
and ``even_function`` assemble odd exponentials and even functions from SVD factors.
``check_gap`` is the one rule for when an eigenvalue counts as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_FLOOR, frobenius, require_hermitian
from .errors import (
    BranchCutProximity,
    NotUnitary,
    SingularHamiltonian,
    SingularOperand,
)

# Relative spectral-gap tolerance; read only by ``check_gap``.
GAP_RTOL = 1e-10

# Minimum distance of a unitary eigenphase from the +-pi branch cut.
BRANCH_MARGIN = 1e-8

# Absolute tolerance on ||U^H U - 1||_F for logarithm inputs and accepted transforms.
UNITARY_TOL = 1e-10


def _hermitize(a):
    return 0.5 * (a + a.conj().T)


def check_gap(values, error, what: str):
    """The gap rule: ``error`` when min ``values`` < GAP_RTOL * max(max |values|, NORM_FLOOR).

    ``values`` are an operand's eigenvalues, or |w| for a Hermitian H, so
    max |values| is its 2-norm; the comparison is signed, so a negative
    eigenvalue of a positive operand fails too.  ``what`` names the smallest value.
    """
    smallest = float(np.min(values))
    floor = GAP_RTOL * max(float(np.max(np.abs(values))), NORM_FLOOR)
    if not smallest >= floor:
        raise error(f"{what} {smallest:.3e} is below the gap tolerance {floor:.3e}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A Hermitian matrix with its eigenvalues ``w`` (ascending) and eigenvectors ``v``."""

    matrix: np.ndarray
    w: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, x) -> "Spectrum":
        """``x`` itself when it is a Spectrum, else one ``eigh`` of the matrix ``x``.

        eigh reads one triangle, so a non-Hermitian ``x`` raises NonHermitianInput.
        """
        if isinstance(x, cls):
            return x
        x = require_hermitian(np.asarray(x, dtype=complex), "operand")
        return cls(x, *np.linalg.eigh(x))

    def apply(self, f) -> np.ndarray:
        """Hermitian V diag(f(w)) V^H."""
        return _hermitize((self.v * f(self.w)) @ self.v.conj().T)


@dataclass(frozen=True)
class SpectralGapReport:
    """Smallest |eigenvalue| of a Hermitian operand and the gap verdict."""

    min_abs_eigenvalue: float
    is_definite: bool


def spectral_gap(h) -> SpectralGapReport:
    """Measure the spectral gap of a Hermitian matrix or Spectrum around zero.

    ``is_definite`` is the verdict of ``require_gap``: min |w| clears
    GAP_RTOL * max |w|, the gap rule ``check_gap`` at the 2-norm of h.
    """
    h = Spectrum.of(h)
    try:
        require_gap(h)
    except SingularHamiltonian:
        definite = False
    else:
        definite = True
    return SpectralGapReport(float(np.min(np.abs(h.w))), definite)


def inv_sqrt(a) -> np.ndarray:
    """Inverse principal root P, P @ a @ P = 1, of a Hermitian PD matrix or Spectrum.

    Raises SingularOperand if the smallest eigenvalue fails ``check_gap``.
    """
    a = Spectrum.of(a)
    check_gap(a.w, SingularOperand, "smallest eigenvalue")
    return a.apply(lambda w: 1.0 / np.sqrt(w))


def require_gap(h) -> Spectrum:
    """Spectrum of ``h``; SingularHamiltonian when |w| fails ``check_gap``: min |w| is
    below GAP_RTOL * max |w|, where the sign operator's error eps / min |w| grows."""
    h = Spectrum.of(h)
    check_gap(np.abs(h.w), SingularHamiltonian, "no spectral gap at zero: smallest |eigenvalue|")
    return h


def sign_operator(h) -> np.ndarray:
    """Matrix sign V diag(sign w) V^H of a gapped Hermitian matrix or Spectrum.

    The result is a Hermitian involution whose +1 / -1 eigenspaces are the
    positive / negative spectral subspaces of ``h``; taken from eigh of h,
    not of h @ h, its error grows like eps / delta at relative gap delta.
    """
    return require_gap(h).apply(np.sign)


def unitary_log(u, *, defect=None) -> np.ndarray:
    """Hermitian generator S with u = exp(i S) and eigenvalues in (-pi, pi).

    A numerically unitary u is normal, so its Cayley transform
    T = i (1 - u)(1 + u)^(-1) is Hermitian with eigenvalues tan(theta / 2):
    one eigh T = Q diag(w) Q^H gives S = Q diag(2 arctan w) Q^H.  For an
    eigenphase within delta of +-pi the relative error of S grows like
    eps / delta (about 1e-12 at delta = 1e-4, 1e-8 near BRANCH_MARGIN).
    Raises NotUnitary if u is non-finite or ||u^H u - 1||_F (``defect`` if
    the caller measured it) exceeds UNITARY_TOL, and BranchCutProximity if
    1 + u is singular or an eigenphase lies within BRANCH_MARGIN of +-pi.
    """
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        raise NotUnitary("U has non-finite entries")
    eye = np.eye(u.shape[0])
    defect = frobenius(u.conj().T @ u - eye) if defect is None else defect
    if not defect <= UNITARY_TOL:
        raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {UNITARY_TOL:.1e}")
    try:
        cayley = 1j * np.linalg.solve(eye + u, eye - u)
    except np.linalg.LinAlgError as exc:
        raise BranchCutProximity("1 + U is singular: eigenphase on the branch cut") from exc
    t = Spectrum.of(_hermitize(cayley))
    margin = float(np.min(np.pi - np.abs(2.0 * np.arctan(t.w))))
    if margin < BRANCH_MARGIN:
        raise BranchCutProximity(f"eigenphase within {margin:.3e} of the +-pi branch cut")
    return t.apply(lambda w: 2.0 * np.arctan(w))


def odd_exp(c) -> np.ndarray:
    """Exponential of the odd anti-Hermitian generator [[0, c], [-c^H, 0]], from one SVD of c;
    a stack of c gives the stack of exponentials, each slice bit for bit its own."""
    return odd_rotation(*np.linalg.svd(np.asarray(c, dtype=complex)))


def odd_rotation(p, s, qh) -> np.ndarray:
    """exp [[0, c], [-c^H, 0]] for c = P diag(s) Q^H, in cosine-sine form

    [[P cos(s) P^H, P sin(s) Q^H], [-Q sin(s) P^H, Q cos(s) Q^H]], slice by slice on stacks.
    """
    q = qh.conj().swapaxes(-1, -2)
    cos, sin = np.cos(s)[..., None, :], np.sin(s)[..., None, :]
    left = np.concatenate((p * cos, q * -sin), axis=-2) @ p.conj().swapaxes(-1, -2)
    right = np.concatenate((p * sin, q * cos), axis=-2) @ qh
    return np.concatenate((left, right), axis=-1)


def even_function(p, f, qh) -> np.ndarray:
    """Hermitian diag(P diag(f) P^H, Q diag(f) Q^H), the even counterpart of ``odd_rotation``."""
    zero = np.zeros_like(p)
    return _hermitize(np.block([[(p * f) @ p.conj().T, zero], [zero, (qh.conj().T * f) @ qh]]))
