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

``weak_field_sqrt`` is the root of H^2 = eps^2 + X + E^2, X = {beta m + O, E}, exact to
first order in E: R = eps + L(X), where eps L + L eps = X.  In eps's eigenbasis
W = diag(P, Q), L_ij = X_ij / (e_i + e_j) with e = sqrt(a) on both blocks.  It needs no
commutation assumption; when [E, O] = 0, L(X) = (beta m + O) E / eps and R is the closed
root.  R is homogeneous: (c m, c E, c O) gives c R.  ``weak_field_transform`` builds its
transform.
Their routes take a ``ModelStack`` only; a single-model name is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import (NORM_FLOOR, DiracDecomposition, adjoint, anticommutator, beta_signs,
                      commutator, frobenius, require_type)
from .eriksen import FWResult, _alone
from .errors import NotCommuting, OutsideValidityDomain, SingularOperand
from .matfunc import (Slices, Spectrum, _hermitize, check_gap, even_function, inv_sqrt_stack,
                      odd_rotation, single_blas_thread)

# Commutation residual below which the closed forms are trusted.
COMMUTE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ModelStack:
    """Decompositions of one shape as stacks, with each model's scaled commutator residual
    ``commutation`` (||[E, O]||_F over ||E||_F ||O||_F + floor; ``_odd_block`` alone compares it
    with COMMUTE_TOL) and H's stacked Spectrum where a route needs it; ``odd_svd`` is taken on
    first use, and ``[keep]`` selects, carrying an SVD already taken."""

    h: Spectrum | None
    masses: np.ndarray
    even_part: np.ndarray
    odd_part: np.ndarray
    commutation: np.ndarray

    @classmethod
    def of(cls, ds, h: Spectrum | None = None) -> "ModelStack":
        ds = [require_type(d, DiracDecomposition, "decomposition") for d in ds]
        even, odd = np.stack([d.even_part for d in ds]), np.stack([d.odd_part for d in ds])
        # each part over 2^k near its largest entry or the floor, exactly: no square overflows
        k = [np.frexp(np.maximum(abs(x).max(axis=(1, 2)), NORM_FLOOR))[1] for x in (even, odd)]
        e, o = (x * np.ldexp(1.0, -kx)[:, None, None] for x, kx in zip((even, odd), k))
        scaled = frobenius(commutator(e, o)) / (frobenius(e) * frobenius(o)
                                                + np.ldexp(NORM_FLOOR, -k[0] - k[1]))
        return cls(h, np.array([[d.mass] for d in ds], dtype=float), even, odd, scaled)

    @cached_property
    def odd_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SVD (P, sigma, Q^H) of each upper-right block B of O = [[0, B], [B^H, 0]]."""
        n = self.odd_part.shape[-1] // 2
        return np.linalg.svd(self.odd_part[:, :n, n:])

    def __getitem__(self, keep) -> "ModelStack":
        part = ModelStack(self.h and self.h[keep], self.masses[keep],
                          self.even_part[keep], self.odd_part[keep], self.commutation[keep])
        if "odd_svd" in vars(self):
            vars(part)["odd_svd"] = tuple(x[keep] for x in self.odd_svd)
        return part


def _odd_block(d: ModelStack, slices: Slices, *powers, commuting: bool = True):
    # (d, P, sigma, Q^H) of the models that pass, then (m^2 + O^2)^k for k in powers;
    # NotCommuting first if ``commuting`` is required.  m^2 + O^2 has the eigenvalues
    # a = m^2 + sigma^2, and SingularOperand is raised when min a fails check_gap.
    def commutes(slot):
        r = d.commutation[slot]
        if not r <= COMMUTE_TOL:
            raise NotCommuting(f"scaled commutator residual {r:.3e} exceeds {COMMUTE_TOL:.1e}")

    if commuting:
        d, = slices.gate(commutes, d)
    p, sigma, qh = d.odd_svd
    a = np.array([[float(m) ** 2] for m in d.masses[:, 0]]) + sigma**2
    d, p, sigma, qh, a = slices.gate(lambda slot: check_gap(
        a[slot], SingularOperand, "smallest eigenvalue of m^2 + O^2"), d, p, sigma, qh, a)
    return (d, p, sigma, qh) + tuple(even_function(p, a**k, qh) for k in powers)


def sqrt_hd2_exact(d: DiracDecomposition) -> np.ndarray:
    """Closed-form root eps + (beta m + O) E / eps of H^2.

    Raises NotCommuting when [E, O] fails COMMUTE_TOL and
    OutsideValidityDomain when the closed form's smallest eigenvalue fails
    ``check_gap``, i.e. when it stops being the principal root.
    """
    eps, eps_inv = (x[0] for x in _odd_block(ModelStack.of([d]), Slices(1), 0.5, -0.5)[4:])
    core = np.diag(d.mass * beta_signs({"odd part": d.odd_part})) + d.odd_part
    root = eps + core @ d.even_part @ eps_inv
    check_gap(np.linalg.eigvalsh(_hermitize(root)), OutsideValidityDomain,
              "the even part is too strong for the principal branch: "
              "the closed-form root's smallest eigenvalue")
    return root


def lambda_exact(d: DiracDecomposition) -> np.ndarray:
    """Sign operator (beta m + O) / eps = beta U^2 of the commuting case.

    The even part does not enter: bitwise-identical (m, O) give a
    bitwise-identical result whatever E is.
    """
    p, sigma, qh = (x[0] for x in _odd_block(ModelStack.of([d]), Slices(1))[1:])
    signs = beta_signs({"odd part": d.odd_part})
    return signs[:, None] * odd_rotation(p, np.arctan2(sigma, d.mass), qh)


def u_fw_exact(d: DiracDecomposition) -> FWResult:
    """Closed-form transform (eps + m + beta O) / sqrt(2 eps (eps + m)).

    It is the odd rotation by arctan2(sigma, m) / 2, unitary for any Hermitian
    odd part, and agrees with the sign-operator construction on commuting
    input.  Its diagnostics read d.hamiltonian(); ``FWResult.of`` takes another H.
    """
    parts = ModelStack.of([d])
    return _alone(lambda slices, h: u_fw_stack(slices, replace(parts, h=h)), d.hamiltonian())


def u_fw_stack(slices: Slices, d: ModelStack):
    """``u_fw_exact`` of a ModelStack ``d`` and its ``h``: (H, U, U H U^H) stacks."""
    d, p, sigma, qh = _odd_block(d, slices)
    u = odd_rotation(p, 0.5 * np.arctan2(sigma, d.masses), qh)
    return d.h, u, u @ d.h.matrix @ adjoint(u)


def h_fw_exact(d: DiracDecomposition) -> np.ndarray:
    """Block-diagonal end point beta eps + E of the commuting case."""
    eps = _odd_block(ModelStack.of([d]), Slices(1), 0.5)[4][0]
    return beta_signs({"even part": d.even_part})[:, None] * eps + d.even_part


@single_blas_thread()
def weak_field_sqrt(d: DiracDecomposition) -> np.ndarray:
    """Weak-coupling approximation of sqrt(H^2), exact to first order in E.

    Evaluates R = eps + L(X), X = {beta m + O, E}, where L solves eps L + L eps = X.
    When [E, O] = 0 this is the closed root eps + (beta m + O) E / eps exactly; otherwise its
    error is second order in the even coupling.  Scaling (m, E, O) by c > 0 scales R by c.
    """
    return weak_root_stack(Slices(1), ModelStack.of([d]))[1][0]


def weak_root_stack(slices: Slices, d: ModelStack):
    """``weak_field_sqrt`` of a ModelStack ``d``: (the ModelStack left, the root of each slice)."""
    d, p, sigma, qh = _odd_block(d, slices, commuting=False)
    signs = beta_signs({"odd part": d.odd_part})
    core = np.stack([np.diag(m * signs) for m in d.masses[:, 0]]) + d.odd_part
    n, e = p.shape[-1], np.sqrt(d.masses**2 + sigma**2)
    e = np.concatenate((e, e), axis=-1)  # eps = W diag(e) W^H with W = diag(P, Q)
    w = np.zeros_like(core)
    w[:, :n, :n], w[:, n:, n:] = p, adjoint(qh)
    root = adjoint(w) @ anticommutator(core, d.even_part) @ w
    root /= e[:, :, None] + e[:, None, :]
    root[:, range(2 * n), range(2 * n)] += e
    return d, w @ root @ adjoint(w)


def weak_field_transform(h, root) -> FWResult:
    """Transform of ``h`` (H or its Spectrum) induced by an approximate root R of H^2.

    With lambda_w = H R^(-1) and K_w = 1 + (beta lambda_w + lambda_w beta - 2)/4,
    U = (1/2)(1 + beta lambda_w) [(K_w + K_w^H)/2]^(-1/2), as K_w is not Hermitian off the
    commuting case.  U is only as unitary as R is exact, and its diagnostics show that, so
    the result skips the NotUnitary check.  OutsideValidityDomain when R fails ``check_gap``,
    DimensionMismatch unless R has H's shape.
    """
    beta_signs({"H": h, "root": root})
    return _alone(weak_field_stack, h, np.asarray(root)[None], unitary=False)


def weak_field_stack(slices: Slices, h: Spectrum, root):
    """``weak_field_transform`` of a stacked Spectrum ``h`` and roots: (H, U, U H U^H) stacks."""
    signs = beta_signs({"H": h, "root": root})
    root, h = Spectrum.of_stack(root, slices, h)
    root, h = slices.gate(lambda slot: check_gap(
        root.w[slot], OutsideValidityDomain, "smallest eigenvalue of the approximate root"),
        root, h)
    lam = h.matrix @ root.apply(np.reciprocal)
    del root
    beta_lam = signs[:, None] * lam
    eye = np.eye(len(signs), dtype=complex)
    core = eye + 0.25 * (beta_lam + lam * signs - 2.0 * eye)
    del lam
    core, beta_lam, h = inv_sqrt_stack(slices, *Spectrum.of_stack(core, slices, beta_lam, h))
    u = 0.5 * (eye + beta_lam) @ core
    return h, u, u @ h.matrix @ adjoint(u)
