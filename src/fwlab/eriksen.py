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
also accept its ``Spectrum``.  Each route is a kernel on stacks only, one LAPACK call per step;
``_alone`` runs one on a single model for every single-model name (``FWResult.of`` and
``stepwise_fw`` too), and ``diagnose`` measures a stack as one and applies ``check_unitarity``.
``FWResult`` is a record; only ``diagnose`` and ``unitary_log`` check a caller's U.

A transform of this family also has a Hermitian generator S = -i log U
that is odd (anticommutes with beta).  Multi-step schemes produce unitary
transforms whose generators fail that condition; ``exponent_oddness``
quantifies the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (NORM_FLOOR, adjoint, beta_signs, even_projection, frobenius,
                      odd_norm_ratio, relative_norm, require_finite)
from .errors import DegenerateFactor, FWLabError, NotUnitary, SingularOperand
from .matfunc import (Slices, Spectrum, _hermitize, check_gap, check_unitarity, odd_rotation,
                      require_gap, single_blas_thread, unitary_log, unitary_log_stack)


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
    """A produced transform, the transformed Hamiltonian and their diagnostics: a record.  The
    unitarity verdict is ``check_unitarity``'s, applied by ``diagnose`` and so by ``of``."""

    transform: np.ndarray
    transformed_hamiltonian: np.ndarray
    diagnostics: DiagnosticSet

    @classmethod
    def of(cls, u, h, transformed=None, *, unitary=True) -> "FWResult":
        """Result for a caller's own transform ``u`` of ``h``, all of H's shape (DimensionMismatch,
        also for a None U); u h u^H is built once unless ``transformed``, and after H ``diagnose``
        refuses a non-finite U as NotUnitary.  ``unitary=False`` skips the unitarity verdict, as
        for the weak-field U, unitary as far as its root is exact."""
        beta_signs({"U": u})
        beta_signs({"H": h, "U": u, "U H U^H": transformed})
        u = np.asarray(u, dtype=complex)

        def given(slices, h):  # the caller's U as a route, checked after H by diagnose
            with np.errstate(over="ignore", invalid="ignore"):
                x = u @ h.matrix[0] @ adjoint(u) if transformed is None else np.asarray(transformed)
            return h, u[None], x[None]

        return _alone(given, h, unitary=unitary)


def diagnose(slices: Slices, h, u, transformed, unitary=True) -> list:
    """FWResults of stacks ``h`` (a Spectrum), ``u`` and ``transformed``, in slice order; a slice
    that ``require_finite`` refuses (its U as NotUnitary, then its U H U^H as NonHermitianInput)
    or, if ``unitary``, ``check_unitarity`` refuses leaves ``slices``."""
    if not (np.isfinite(frobenius(u)).all() and np.isfinite(frobenius(transformed)).all()):
        h, u, transformed = slices.gate(
            lambda slot: (require_finite(u[slot], "U", NotUnitary),
                          require_finite(transformed[slot], "U H U^H")), h, u, transformed)
    diagnostics = _diagnostics(u, h, transformed)
    kept, = slices.gate(lambda slot: unitary and check_unitarity(
        diagnostics[slot].unitarity_residual), np.arange(len(diagnostics)))
    return [FWResult(u[slot], transformed[slot], diagnostics[slot]) for slot in kept]


@single_blas_thread()
def _alone(route, h, *stacks, unitary=True) -> FWResult:
    """``diagnose`` of ``route(slices, H's stack, *stacks)`` -> (H, U, U H U^H), on Slices(1)."""
    beta_signs({"Hamiltonian": h})
    slices, h = Slices(1), Spectrum.of(h, "Hamiltonian")[None]
    return diagnose(slices, *route(slices, h, *stacks), unitary)[0]


def eriksen_condition_residual(u):
    """Relative Frobenius residual of the adjoint condition beta U = U^H beta, of each slice
    on a stack."""
    u = np.asarray(u, dtype=complex)
    signs = beta_signs({"U": u})
    return relative_norm(signs[:, None] * u - adjoint(u) * signs, u)


def exponent_oddness(u) -> float:
    """Relative weight ||(S + beta S beta) / 2||_F / max(||S||_F, floor) of the even part of
    the generator S = -i log U; raises whatever ``unitary_log`` raises for unusable input."""
    beta_signs({"U": u})
    s = unitary_log(u)
    return relative_norm(even_projection(s), s)


def _diagnostics(u, h, transformed):
    # the DiagnosticSet of each slice of finite stacks of one shape, as diagnose's gate leaves
    # them; spectrum_drift is the largest sorted-eigenvalue displacement relative to ||h||_F
    gram = adjoint(u) @ u
    gram -= np.eye(u.shape[-1])
    unitarity = frobenius(gram).tolist()
    del gram
    condition = eriksen_condition_residual(u).tolist()
    blockness = odd_norm_ratio(transformed).tolist()
    after = np.linalg.eigvalsh(_hermitize(transformed))
    drift = (np.max(np.abs(after - h.w), axis=-1)
             / np.maximum(frobenius(h.matrix), NORM_FLOOR)).tolist()
    slices = Slices(len(u))
    try:
        s = unitary_log_stack(slices, u, unitarity)
        oddness = dict(zip(slices.index, relative_norm(even_projection(s), s).tolist()))
    except FWLabError:
        oddness = {}
    return [DiagnosticSet(*values, oddness.get(slot), drift[slot])
            for slot, values in enumerate(zip(unitarity, condition, blockness))]


def eriksen_transform(h) -> FWResult:
    """Build the transform as the direct rotation of the positive eigenvectors of ``h``.

    One n x n solve gives T^H = X^(-H) Y^H, one n x n SVD its angles.
    SingularHamiltonian comes from the sign operator's gap rule;
    SingularOperand when H has not n positive eigenvalues, X is singular, or
    min cos^2 theta, the smallest eigenvalue of K, fails ``check_gap`` at scale 1.
    """
    return _alone(eriksen_stack, h)


def eriksen_stack(slices: Slices, h: Spectrum):
    """``eriksen_transform`` of a stacked Spectrum ``h``: (H, U, U H U^H) stacks."""
    n = len(beta_signs({"H": h})) // 2
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
        lambda slot: check_gap(cos2[slot], SingularOperand, "smallest cos^2 theta", 1),
        h, p, theta, qh)
    u = odd_rotation(p, theta, qh)
    del p, qh
    return h, u, u @ h.matrix @ adjoint(u)


def eriksen_transform_alt(h) -> FWResult:
    """Polar-form variant U = F (F^H F)^(-1/2) with F = 1 + beta lambda.

    Algebraically identical to ``eriksen_transform`` but coded on an
    independent path: U is the unitary polar factor P Q^H of the SVD
    F = P Sigma Q^H.  Since F^H F = 4 K, (Sigma / 2)^2 are the values
    cos^2 theta that ``eriksen_transform`` tests, and DegenerateFactor is
    raised when they fail the same ``check_gap``, so both routes refuse the
    same models.
    """
    return _alone(eriksen_alt_stack, h)


def eriksen_alt_stack(slices: Slices, h: Spectrum):
    """``eriksen_transform_alt`` of a stacked Spectrum ``h``: (H, U, U H U^H) stacks."""
    signs = beta_signs({"H": h})
    h, = slices.gate(lambda slot: require_gap(h[slot]), h)
    factor = signs[:, None] * h.apply(np.sign)  # lambda, the sign operator
    factor += np.eye(len(signs), dtype=complex)
    p, sigma, qh = np.linalg.svd(factor)
    del factor
    quarter = (0.5 * sigma) ** 2
    h, p, qh = slices.gate(lambda slot: check_gap(
        quarter[slot], DegenerateFactor, "smallest (sigma / 2)^2 of 1 + beta*lambda", 1), h, p, qh)
    u = p @ qh
    del p, qh
    return h, u, u @ h.matrix @ adjoint(u)
