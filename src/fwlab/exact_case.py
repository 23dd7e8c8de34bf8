"""Closed forms available when the even and odd parts commute.

For H = beta m + E + O with [E, O] = 0 and eps = sqrt(m^2 + O^2):

    sqrt(H^2) = eps + (beta m + O) E / eps     (principal root inside the
                                                validity domain)
    lambda    = (beta m + O) / eps             (independent of E)
    U         = (eps + m + beta O) / sqrt(2 eps (eps + m))
    U H U^H   = beta eps + E

The closed root coincides with the principal root only while it stays
positive; a strong even part pushes it onto another branch, which is
reported as OutsideValidityDomain.

``weak_field_sqrt`` keeps the anticommutator term and one double
commutator of eps with E.  It needs no commutation assumption and
collapses to the closed root whenever [E, O] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    NORM_FLOOR,
    DiracDecomposition,
    anticommutator,
    commutator,
    frobenius,
    make_beta,
)
from .eriksen import METHOD_EXACT_CASE, FWResult
from .errors import NotCommuting, OutsideValidityDomain
from .matfunc import GAP_RTOL, Spectrum, inv_sqrt, principal_sqrt

# Commutation residual below which the closed forms are trusted.
COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class CommutationReport:
    """Scaled commutator residual of (E, O) and the resulting verdict."""

    commutator_residual: float
    is_commuting: bool


def check_commutation(d: DiracDecomposition, *, commute_tol: float = COMMUTE_TOL) -> CommutationReport:
    """Measure ||[E, O]||_F / (||E||_F ||O||_F + floor) against ``commute_tol``."""
    e, o = d.even_part, d.odd_part
    residual = frobenius(commutator(e, o)) / (frobenius(e) * frobenius(o) + NORM_FLOOR)
    return CommutationReport(residual, bool(residual <= commute_tol))


def _require_commuting(d: DiracDecomposition, commute_tol: float):
    report = check_commutation(d, commute_tol=commute_tol)
    if not report.is_commuting:
        raise NotCommuting(
            f"scaled commutator residual {report.commutator_residual:.3e} "
            f"exceeds {commute_tol:.1e}"
        )


def _epsilon(d: DiracDecomposition):
    # (a, eps, 1/eps) from one eigh of the PD a = m^2 + O^2; inv_sqrt rejects a singular a.
    a = Spectrum.of(d.mass**2 * np.eye(d.grading.dim, dtype=complex) + d.odd_part @ d.odd_part)
    return a, principal_sqrt(a), inv_sqrt(a)


def epsilon_operator(d: DiracDecomposition) -> np.ndarray:
    """Kinetic-energy operator eps = sqrt(m^2 + O^2); Hermitian, even, >= m."""
    return _epsilon(d)[1]


def sqrt_hd2_exact(d: DiracDecomposition, *, commute_tol: float = COMMUTE_TOL,
                   gap_tol: float | None = None) -> np.ndarray:
    """Closed-form root eps + (beta m + O) E / eps of H^2.

    Raises NotCommuting when [E, O] fails the tolerance and
    OutsideValidityDomain when the closed form has an eigenvalue below
    ``gap_tol`` (default GAP_RTOL * ||result||_F), i.e. when it stops being
    the principal root.
    """
    _require_commuting(d, commute_tol)
    _, eps, eps_inv = _epsilon(d)
    core = d.mass * make_beta(d.grading) + d.odd_part
    root = eps + core @ d.even_part @ eps_inv
    w = np.linalg.eigvalsh(0.5 * (root + root.conj().T))
    if gap_tol is None:
        gap_tol = GAP_RTOL * max(frobenius(root), NORM_FLOOR)
    if w[0] < gap_tol:
        raise OutsideValidityDomain(
            f"closed-form root has eigenvalue {w[0]:.3e}; "
            "the even part is too strong for the principal branch"
        )
    return root


def lambda_exact(d: DiracDecomposition, *, commute_tol: float = COMMUTE_TOL) -> np.ndarray:
    """Sign operator (beta m + O) / eps of the commuting case.

    The even part does not enter: bitwise-identical (m, O) give a
    bitwise-identical result whatever E is.
    """
    _require_commuting(d, commute_tol)
    lam = (d.mass * make_beta(d.grading) + d.odd_part) @ _epsilon(d)[2]
    return 0.5 * (lam + lam.conj().T)


def u_fw_exact(d: DiracDecomposition, *, commute_tol: float = COMMUTE_TOL) -> FWResult:
    """Closed-form transform (eps + m + beta O) / sqrt(2 eps (eps + m)).

    eps and the denominator are functions of the same eigendecomposition of
    m^2 + O^2, and the result is unitary for any Hermitian odd part; it
    agrees with the sign-operator construction on commuting input.
    """
    _require_commuting(d, commute_tol)
    a, eps, _ = _epsilon(d)
    numerator = eps + d.mass * np.eye(d.grading.dim) + make_beta(d.grading) @ d.odd_part
    u = numerator @ a.apply(lambda w: 1.0 / np.sqrt(2.0 * w + 2.0 * d.mass * np.sqrt(w)))
    return FWResult.of(u, d.hamiltonian(), d.grading, METHOD_EXACT_CASE)


def h_fw_exact(d: DiracDecomposition, *, commute_tol: float = COMMUTE_TOL) -> np.ndarray:
    """Block-diagonal end point beta eps + E of the commuting case."""
    _require_commuting(d, commute_tol)
    return make_beta(d.grading) @ epsilon_operator(d) + d.even_part


def weak_field_sqrt(d: DiracDecomposition) -> np.ndarray:
    """Weak-coupling approximation of sqrt(H^2).

    Evaluates

        eps + {1/eps, {beta m + O, E}} / 4
            - {(beta m + O)/eps, [eps, [eps, E]]} / 8,

    keeping terms linear in E up to double commutators.  Exact whenever
    [E, O] = 0; otherwise accurate to second order in the even coupling.
    """
    _, eps, eps_inv = _epsilon(d)
    core = d.mass * make_beta(d.grading) + d.odd_part
    paired = anticommutator(core, d.even_part)
    first = 0.25 * anticommutator(eps_inv, paired)
    nested = commutator(eps, commutator(eps, d.even_part))
    second = 0.125 * anticommutator(core @ eps_inv, nested)
    return eps + first - second
