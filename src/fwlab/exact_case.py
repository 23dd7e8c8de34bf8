"""Closed forms available when the even and odd parts commute.

For H = beta m + E + O with [E, O] = 0 and eps = sqrt(m^2 + O^2):

    sqrt(H^2) = eps + (beta m + O) E / eps     (principal root inside the
                                                validity domain)
    lambda    = (beta m + O) / eps             (independent of E)
    U         = (eps + m + beta O) / sqrt(2 eps (eps + m))
    U H U^H   = beta eps + E

One SVD B = P diag(sigma) Q^H of the odd part O = [[0, B], [B^H, 0]],
taken once per decomposition, gives them all: with a = m^2 + sigma^2,
eps = diag(P sqrt(a) P^H, Q sqrt(a) Q^H), U is the odd rotation by
arctan2(sigma, m) / 2 and lambda = beta U^2.

The closed root coincides with the principal root only while it stays
positive; a strong even part pushes it onto another branch, which is
reported as OutsideValidityDomain.

``weak_field_sqrt`` keeps the anticommutator term and one double commutator
of eps with E.  It needs no commutation assumption, collapses to the closed
root whenever [E, O] = 0, and ``weak_field_transform`` builds its transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_FLOOR, DiracDecomposition, Grading, anticommutator, commutator, frobenius
from .eriksen import FWResult, hamiltonian_spectrum
from .errors import NotCommuting, OutsideValidityDomain, SingularOperand
from .matfunc import Spectrum, check_gap, even_function, inv_sqrt, odd_rotation

# Commutation residual below which the closed forms are trusted.
COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class CommutationReport:
    """Scaled commutator residual of (E, O) and the resulting verdict."""

    commutator_residual: float
    is_commuting: bool


def check_commutation(d: DiracDecomposition) -> CommutationReport:
    """Measure ||[E, O]||_F / (||E||_F ||O||_F + floor) against COMMUTE_TOL."""
    residual = d.commutator_norm / (frobenius(d.even_part) * frobenius(d.odd_part) + NORM_FLOOR)
    return CommutationReport(residual, bool(residual <= COMMUTE_TOL))


def _odd_block(d: DiracDecomposition, *powers, commuting: bool = True):
    # (P, sigma, Q^H) of B, then (m^2 + O^2)^k for k in powers; NotCommuting first if
    # ``commuting`` is required.  m^2 + O^2 has the eigenvalues a = m^2 + sigma^2, and
    # SingularOperand is raised when min a fails check_gap.
    if commuting:
        report = check_commutation(d)
        if not report.is_commuting:
            raise NotCommuting(f"scaled commutator residual {report.commutator_residual:.3e} "
                               f"exceeds {COMMUTE_TOL:.1e}")
    p, sigma, qh = d.odd_svd
    a = d.mass**2 + sigma**2
    check_gap(a, SingularOperand, "smallest eigenvalue of m^2 + O^2")
    return (p, sigma, qh) + tuple(even_function(p, a**k, qh) for k in powers)


def sqrt_hd2_exact(d: DiracDecomposition) -> np.ndarray:
    """Closed-form root eps + (beta m + O) E / eps of H^2.

    Raises NotCommuting when [E, O] fails COMMUTE_TOL and
    OutsideValidityDomain when the closed form's smallest eigenvalue fails
    ``check_gap``, i.e. when it stops being the principal root.
    """
    eps, eps_inv = _odd_block(d, 0.5, -0.5)[3:]
    core = np.diag(d.mass * d.grading.signs) + d.odd_part
    root = eps + core @ d.even_part @ eps_inv
    check_gap(np.linalg.eigvalsh(0.5 * (root + root.conj().T)), OutsideValidityDomain,
              "the even part is too strong for the principal branch: "
              "the closed-form root's smallest eigenvalue")
    return root


def lambda_exact(d: DiracDecomposition) -> np.ndarray:
    """Sign operator (beta m + O) / eps = beta U^2 of the commuting case.

    The even part does not enter: bitwise-identical (m, O) give a
    bitwise-identical result whatever E is.
    """
    p, sigma, qh = _odd_block(d)
    return d.grading.signs[:, None] * odd_rotation(p, np.arctan2(sigma, d.mass), qh)


def u_fw_exact(d: DiracDecomposition, *, h=None) -> FWResult:
    """Closed-form transform (eps + m + beta O) / sqrt(2 eps (eps + m)).

    It is the odd rotation by arctan2(sigma, m) / 2, unitary for any Hermitian
    odd part, and agrees with the sign-operator construction on commuting
    input.  The diagnostics read ``h`` (H or its Spectrum), by default d.hamiltonian().
    """
    p, sigma, qh = _odd_block(d)
    u = odd_rotation(p, 0.5 * np.arctan2(sigma, d.mass), qh)
    return FWResult.of(u, d.hamiltonian() if h is None else h, d.grading)


def h_fw_exact(d: DiracDecomposition) -> np.ndarray:
    """Block-diagonal end point beta eps + E of the commuting case."""
    eps = _odd_block(d, 0.5)[3]
    return d.grading.signs[:, None] * eps + d.even_part


def weak_field_sqrt(d: DiracDecomposition) -> np.ndarray:
    """Weak-coupling approximation of sqrt(H^2).

    Evaluates

        eps + {1/eps, {beta m + O, E}} / 4
            - {(beta m + O)/eps, [eps, [eps, E]]} / 8,

    keeping terms linear in E up to double commutators.  Exact whenever
    [E, O] = 0; otherwise accurate to second order in the even coupling.
    """
    eps, eps_inv = _odd_block(d, 0.5, -0.5, commuting=False)[3:]
    core = np.diag(d.mass * d.grading.signs) + d.odd_part
    paired = anticommutator(core, d.even_part)
    first = 0.25 * anticommutator(eps_inv, paired)
    nested = commutator(eps, commutator(eps, d.even_part))
    second = 0.125 * anticommutator(core @ eps_inv, nested)
    return eps + first - second


def weak_field_transform(h, root, grading: Grading) -> FWResult:
    """Transform of ``h`` (H or its Spectrum) induced by an approximate root R of H^2.

    With lambda_w = H R^(-1) and K_w = 1 + (beta lambda_w + lambda_w beta - 2)/4,
    U = (1/2)(1 + beta lambda_w) [(K_w + K_w^H)/2]^(-1/2), as K_w is not Hermitian off the
    commuting case.  U is only as unitary as R is exact, and its diagnostics show that, so
    the result skips the NotUnitary check.  OutsideValidityDomain when R fails ``check_gap``.
    """
    h = hamiltonian_spectrum(h, grading)
    root = Spectrum.of(0.5 * (root + root.conj().T))
    check_gap(root.w, OutsideValidityDomain, "smallest eigenvalue of the approximate root")
    lam = h.matrix @ root.apply(np.reciprocal)
    beta_lam = grading.signs[:, None] * lam
    eye = np.eye(grading.dim, dtype=complex)
    core = eye + 0.25 * (beta_lam + lam * grading.signs - 2.0 * eye)
    u = 0.5 * (eye + beta_lam) @ inv_sqrt(0.5 * (core + core.conj().T))
    return FWResult.of(u, h, grading, unitary=False)
