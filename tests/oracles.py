"""Dense reference kernels that serve the tests as oracles only."""

import numpy as np

from fwlab import (FWLabError, SingularOperand, Spectrum, anticommutator, beta_signs, commutator,
                   frobenius)
from fwlab.algebra import NORM_FLOOR
from fwlab.matfunc import check_gap, even_function

# Eigenvalues above -PSD_RTOL * ||A||_F count as nonnegative.
PSD_RTOL = 1e-12


class NotPositiveSemidefinite(FWLabError):
    """Square-root operand has an eigenvalue below the negative tolerance."""


def principal_sqrt(a, *, psd_rtol: float = PSD_RTOL):
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


def epsilon_operator(d):
    """Kinetic-energy operator eps = sqrt(m^2 + O^2) of a DiracDecomposition, from its
    odd-block SVD; Hermitian, even, >= m.  SingularOperand when min m^2 + sigma^2 fails
    ``check_gap``."""
    n = len(d.odd_part) // 2
    p, sigma, qh = np.linalg.svd(d.odd_part[:n, n:])
    a = d.mass**2 + sigma**2
    check_gap(a, SingularOperand, "smallest eigenvalue of m^2 + O^2")
    return even_function(p, a**0.5, qh)


def fw_series(d):
    """Eriksen's FW Hamiltonian of a DiracDecomposition to order 1/m^3 (Foldy & Wouthuysen,
    Phys. Rev. 78, 29 (1950); Eriksen, Phys. Rev. 111, 1011 (1958)):

        beta m + E + beta O^2/2m - [O, [O, E]]/8m^2 - beta O^4/8m^3
            + beta {O, [[O, E], E]}/16m^3.
    """
    m, e, o = d.mass, d.even_part, d.odd_part
    signs = beta_signs({"odd part": o})
    beta = signs[:, None]
    oe, o2 = commutator(o, e), o @ o
    return (np.diag(m * signs) + e + beta * o2 / (2 * m)
            - commutator(o, oe) / (8 * m**2) - beta * (o2 @ o2) / (8 * m**3)
            + beta * anticommutator(o, commutator(oe, e)) / (16 * m**3))


def stepwise_departure(d):
    """D3 = -beta [O, E]^2/8 - beta {O, [[O, E], E]}/16, the leading term of
    (H_stepwise - H_eriksen) m^3 for a step-by-step run converged to its end point."""
    e, o = d.even_part, d.odd_part
    beta = beta_signs({"odd part": o})[:, None]
    oe = commutator(o, e)
    return -beta * (oe @ oe) / 8 - beta * anticommutator(o, commutator(oe, e)) / 16


def stepwise_rate(h, mass):
    """rho = max |1 - (a + b)/2m| over H's positive eigenvalues a and |negative| ones b.

    Near its block-diagonal end point diag(A, -B) one step of the step-by-step
    method maps the odd block X to X - (AX + XB)/2m, a Sylvester map whose rate
    is rho; the iteration converges iff rho < 1, i.e. iff H's spectral width
    w_max - w_min = a_max + b_max is below 4m.
    """
    w = np.linalg.eigvalsh(h)
    a, b = w[w > 0.0], -w[w < 0.0]
    extremes = np.array([a.min() + b.min(), a.max() + b.max()])
    return float(np.max(np.abs(1.0 - extremes / (2.0 * mass))))


def mp_sign_transform(h, dps=40):
    """(U, lambda, U h U^H) of a Hermitian 2n x 2n matrix ``h`` from the paper's formula at ``dps``
    digits, rounded to complex128: lambda = V sign(w) V^H from mpmath's ``eighe``, and

        U = (1 + beta lambda) K^(-1/2) / 2,   K = 1 + (beta lambda + lambda beta - 2) / 4,

    with K^(-1/2) from a second ``eighe``; no numpy kernel takes part."""
    import mpmath

    def apply(a, f):
        w, v = mpmath.eighe(a)
        return v * mpmath.diag([f(x) for x in w]) * v.H

    signs = beta_signs({"h": h})
    with mpmath.workdps(dps):
        h = mpmath.matrix(np.asarray(h).tolist())
        eye, beta = mpmath.eye(len(signs)), mpmath.diag(signs.tolist())
        lam = apply(h, mpmath.sign)
        u = (eye + beta * lam) * apply(eye + (beta * lam + lam * beta - 2 * eye) / 4,
                                       lambda x: 1 / mpmath.sqrt(x)) / 2
        return tuple(np.array(x.tolist(), dtype=complex) for x in (u, lam, u * h * u.H))
