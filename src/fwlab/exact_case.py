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
Both routes also run on a ``ModelStack``, as ``eriksen``'s routes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (NORM_FLOOR, DiracDecomposition, Grading, adjoint, anticommutator,
                      commutator, frobenius)
from .eriksen import _alone
from .errors import NotCommuting, OutsideValidityDomain, SingularOperand
from .matfunc import Slices, Spectrum, _hermitize, check_gap, even_function, inv_sqrt, odd_rotation

# Commutation residual below which the closed forms are trusted.
COMMUTE_TOL = 1e-12


@dataclass(frozen=True)
class CommutationReport:
    """Scaled commutator residual of (E, O) and the resulting verdict."""

    commutator_residual: float
    is_commuting: bool


def check_commutation(d: DiracDecomposition) -> CommutationReport:
    """Measure ||[E, O]||_F / (||E||_F ||O||_F + floor) against COMMUTE_TOL."""
    return ModelStack.of([d]).commutation[0]


@dataclass(frozen=True, eq=False)
class ModelStack:
    """Decompositions of one grading as stacks, with each CommutationReport and H's stacked
    Spectrum where a route needs it; ``odd_svd`` is taken on first use, ``[keep]`` selects."""

    grading: Grading
    h: Spectrum | None
    masses: np.ndarray
    even_part: np.ndarray
    odd_part: np.ndarray
    commutation: list

    @classmethod
    def of(cls, ds, h: Spectrum | None = None) -> "ModelStack":
        even, odd = np.stack([d.even_part for d in ds]), np.stack([d.odd_part for d in ds])
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as float arithmetic
            scaled = frobenius(commutator(even, odd)) / (frobenius(even) * frobenius(odd)
                                                         + NORM_FLOOR)
        return cls(ds[0].grading, h, np.array([[d.mass] for d in ds]), even, odd,
                   [CommutationReport(r, r <= COMMUTE_TOL) for r in scaled.tolist()])

    @cached_property
    def odd_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SVD (P, sigma, Q^H) of each upper-right block B of O = [[0, B], [B^H, 0]]."""
        n = self.grading.upper_dim
        return np.linalg.svd(self.odd_part[:, :n, n:])

    def __getitem__(self, keep) -> "ModelStack":
        part = ModelStack(self.grading, self.h and self.h[keep], self.masses[keep],
                          self.even_part[keep], self.odd_part[keep],
                          [self.commutation[slot] for slot in keep])
        if "odd_svd" in vars(self):
            vars(part)["odd_svd"] = tuple(x[keep] for x in self.odd_svd)
        return part


def _odd_block(d: ModelStack, slices: Slices, *powers, commuting: bool = True):
    # (d, P, sigma, Q^H) of the models that pass, then (m^2 + O^2)^k for k in powers;
    # NotCommuting first if ``commuting`` is required.  m^2 + O^2 has the eigenvalues
    # a = m^2 + sigma^2, and SingularOperand is raised when min a fails check_gap.
    def commutes(slot):
        report = d.commutation[slot]
        if not report.is_commuting:
            raise NotCommuting(f"scaled commutator residual {report.commutator_residual:.3e} "
                               f"exceeds {COMMUTE_TOL:.1e}")

    if commuting:
        d, = slices.gate(commutes, d)
    p, sigma, qh = d.odd_svd
    a = np.array([[float(m) ** 2] for m in d.masses[:, 0]]) + sigma**2
    d, p, sigma, qh, a = slices.gate(lambda slot: check_gap(
        a[slot], SingularOperand, "smallest eigenvalue of m^2 + O^2"), d, p, sigma, qh, a)
    return (d, p, sigma, qh) + tuple(even_function(p, a**k, qh) for k in powers)


def _one_block(d: DiracDecomposition, *powers, commuting: bool = True):
    """``_odd_block`` of one decomposition: (P, sigma, Q^H, powers...)."""
    return tuple(x[0] for x in _odd_block(ModelStack.of([d]), Slices(1), *powers,
                                          commuting=commuting)[1:])


def sqrt_hd2_exact(d: DiracDecomposition) -> np.ndarray:
    """Closed-form root eps + (beta m + O) E / eps of H^2.

    Raises NotCommuting when [E, O] fails COMMUTE_TOL and
    OutsideValidityDomain when the closed form's smallest eigenvalue fails
    ``check_gap``, i.e. when it stops being the principal root.
    """
    eps, eps_inv = _one_block(d, 0.5, -0.5)[3:]
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
    p, sigma, qh = _one_block(d)
    return d.grading.signs[:, None] * odd_rotation(p, np.arctan2(sigma, d.mass), qh)


def u_fw_exact(d, *, h=None, slices: Slices | None = None):
    """Closed-form transform (eps + m + beta O) / sqrt(2 eps (eps + m)).

    It is the odd rotation by arctan2(sigma, m) / 2, unitary for any Hermitian
    odd part, and agrees with the sign-operator construction on commuting
    input.  The diagnostics read ``h`` (H or its Spectrum), by default d.hamiltonian().
    With ``slices``, (H, U, U H U^H) stacks of a ModelStack ``d`` and its ``h``.
    """
    if slices is None:
        return _alone(lambda slices, h: u_fw_exact(ModelStack.of([d], h), slices=slices),
                      d.hamiltonian() if h is None else h, d.grading)
    d, p, sigma, qh = _odd_block(d, slices)
    u = odd_rotation(p, 0.5 * np.arctan2(sigma, d.masses), qh)
    return d.h, u, u @ d.h.matrix @ adjoint(u)


def h_fw_exact(d: DiracDecomposition) -> np.ndarray:
    """Block-diagonal end point beta eps + E of the commuting case."""
    eps = _one_block(d, 0.5)[3]
    return d.grading.signs[:, None] * eps + d.even_part


def weak_field_sqrt(d, slices: Slices | None = None):
    """Weak-coupling approximation of sqrt(H^2).

    Evaluates

        eps + {1/eps, {beta m + O, E}} / 4
            - {(beta m + O)/eps, [eps, [eps, E]]} / 8,

    keeping terms linear in E up to double commutators.  Exact whenever
    [E, O] = 0; otherwise accurate to second order in the even coupling.
    With ``slices``, (the ModelStack of the models that pass, their roots).
    """
    if slices is None:
        return weak_field_sqrt(ModelStack.of([d]), Slices(1))[1][0]
    d, _, _, _, eps, eps_inv = _odd_block(d, slices, 0.5, -0.5, commuting=False)
    core = np.stack([np.diag(m * d.grading.signs) for m in d.masses[:, 0]]) + d.odd_part
    paired = anticommutator(core, d.even_part)
    first = anticommutator(eps_inv, paired)
    first *= 0.25
    core = core @ eps_inv  # (beta m + O) / eps
    del paired, eps_inv
    nested = commutator(eps, commutator(eps, d.even_part))
    second = anticommutator(core, nested)
    second *= 0.125
    del core, nested
    root = eps + first
    root -= second
    return d, root


def weak_field_transform(h, root, grading: Grading, slices: Slices | None = None):
    """Transform of ``h`` (H or its Spectrum) induced by an approximate root R of H^2.

    With lambda_w = H R^(-1) and K_w = 1 + (beta lambda_w + lambda_w beta - 2)/4,
    U = (1/2)(1 + beta lambda_w) [(K_w + K_w^H)/2]^(-1/2), as K_w is not Hermitian off the
    commuting case.  U is only as unitary as R is exact, and its diagnostics show that, so
    the result skips the NotUnitary check.  OutsideValidityDomain when R fails ``check_gap``.
    With ``slices``, (H, U, U H U^H) stacks of stacks ``h`` and ``root``.
    """
    if slices is None:
        return _alone(lambda slices, h: weak_field_transform(
            h, np.asarray(root)[None], grading, slices), h, grading, unitary=False)
    root, h = Spectrum.of_stack(_hermitize(root), slices, h)
    root, h = slices.gate(lambda slot: check_gap(
        root.w[slot], OutsideValidityDomain, "smallest eigenvalue of the approximate root"),
        root, h)
    lam = h.matrix @ root.apply(np.reciprocal)
    del root
    beta_lam = grading.signs[:, None] * lam
    eye = np.eye(grading.dim, dtype=complex)
    core = eye + 0.25 * (beta_lam + lam * grading.signs - 2.0 * eye)
    del lam
    core, beta_lam, h = inv_sqrt(_hermitize(core), slices, beta_lam, h)
    u = 0.5 * (eye + beta_lam) @ core
    return h, u, u @ h.matrix @ adjoint(u)
