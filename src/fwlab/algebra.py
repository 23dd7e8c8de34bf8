"""Grading algebra for Dirac-type Hamiltonians.

The grading involution beta = diag(+I, -I) splits operators into an even
sector (commuting with beta, block-diagonal) and an odd sector
(anticommuting with beta, block-off-diagonal).  Hamiltonians are handled
in the decomposed form

    H = beta * m + E + O,        beta E = E beta,   beta O = -O beta,

with E and O Hermitian.  Matrices are plain dense complex ndarrays; the
grading travels alongside them as a small value object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Absolute floor used in relative norms so that 0/0 never occurs.
NORM_FLOOR = 1e-300

# Relative Hermiticity tolerance applied to operator inputs.
HERMITICITY_RTOL = 1e-12


def frobenius(a):
    """Frobenius norm of a matrix, a float, or of each matrix of a stack, an array.

    For C-contiguous slices this is one stacked (1, N) @ (N, 1) product per real and
    imaginary part, which numpy runs through the BLAS dot ``np.linalg.norm`` uses, so
    each norm equals the slice's own bit for bit.  Other slices, which that norm reads
    in memory order, are taken one by one.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return float(np.linalg.norm(a, "fro"))
    if not a.flags.c_contiguous:
        return np.array([np.linalg.norm(x, "fro") for x in a])
    rows = a.reshape(len(a), 1, -1)
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum(x @ x.swapaxes(1, 2) for x in parts)[:, 0, 0])


def adjoint(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def relative_norm(num, den):
    """Frobenius norm of ``num`` relative to that of ``den``, floored; on stacks, of each slice."""
    num, den = frobenius(num), frobenius(den)
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as float division
        ratio = num / np.maximum(den, NORM_FLOOR)
    return ratio if np.ndim(ratio) else float(ratio)


def commutator(a, b):
    out = a @ b
    out -= b @ a
    return out


def anticommutator(a, b):
    out = a @ b
    out += b @ a
    return out


def hermiticity_defect(a) -> float:
    """Relative Frobenius distance of ``a`` from its own adjoint."""
    return relative_norm(a - a.conj().T, a)


def require_hermitian(a, name: str) -> np.ndarray:
    """``a`` itself; NonHermitianInput if it is non-finite or not Hermitian within 1e-12."""
    if not np.isfinite(a).all():
        raise NonHermitianInput(f"{name} has non-finite entries")
    if hermiticity_defect(a) > HERMITICITY_RTOL:
        raise NonHermitianInput(f"{name} is not Hermitian within 1e-12")
    return a


def require_mass(mass: float):
    """ValueError unless 0 < mass < inf, the rule for every mass m."""
    if not 0.0 < mass < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")


@dataclass(frozen=True)
class Grading:
    """Block splitting of the state space, +1 block ordered first.

    Only equal blocks are supported: ``dim`` must be exactly twice
    ``upper_dim``.  Unequal splittings are rejected at construction.
    """

    dim: int
    upper_dim: int

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ValueError(f"dim must be positive and even, got {self.dim}")
        if self.upper_dim * 2 != self.dim:
            raise ValueError(
                f"unequal blocks are not supported: dim={self.dim}, upper_dim={self.upper_dim}"
            )

    def check(self, a) -> np.ndarray:
        """Return ``a`` as an ndarray after verifying its shape, or each shape of a stack."""
        a = np.asarray(a)
        if a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"expected a {self.dim}x{self.dim} matrix, got shape {a.shape}"
            )
        return a

    @property
    def signs(self) -> np.ndarray:
        """Diagonal of beta: +1 on the upper block, -1 on the lower."""
        return np.repeat([1.0, -1.0], self.upper_dim)


def make_beta(grading: Grading) -> np.ndarray:
    """Dense grading involution diag(grading.signs)."""
    return np.diag(grading.signs).astype(complex)


def even_projection(h, grading: Grading) -> np.ndarray:
    """Block-diagonal part of ``h``, equal to (h + beta h beta) / 2."""
    signs = grading.signs
    return np.where(signs[:, None] == signs, grading.check(h), 0j)


def odd_projection(h, grading: Grading) -> np.ndarray:
    """Block-off-diagonal part of ``h``, equal to (h - beta h beta) / 2."""
    signs = grading.signs
    return np.where(signs[:, None] != signs, grading.check(h), 0j)


def odd_norm_ratio(h, grading: Grading):
    """Fraction of ``h`` living in the odd sector, of each slice on a stack.

    Returns ||odd part||_F / max(||h||_F, NORM_FLOOR).  Zero exactly when
    ``h`` is block-diagonal; this is the convergence measure used by the
    iterative scheme and the block-diagonality diagnostic.
    """
    return relative_norm(odd_projection(h, grading), h)


@dataclass(frozen=True)
class DiracDecomposition:
    """Splitting H = beta * mass + even_part + odd_part.

    ``even_part`` commutes with beta and is stored with its off-diagonal
    blocks exactly zero; ``odd_part`` anticommutes and is stored with its
    diagonal blocks exactly zero.  Both parts must be finite and Hermitian
    to relative tolerance 1e-12.
    """

    grading: Grading
    mass: float
    even_part: np.ndarray
    odd_part: np.ndarray

    def __post_init__(self):
        require_mass(self.mass)
        e = even_projection(np.asarray(self.even_part, dtype=complex), self.grading)
        o = odd_projection(np.asarray(self.odd_part, dtype=complex), self.grading)
        require_hermitian(e, "even part")
        require_hermitian(o, "odd part")
        object.__setattr__(self, "even_part", e)
        object.__setattr__(self, "odd_part", o)

    def hamiltonian(self) -> np.ndarray:
        """Reassemble beta * mass + E + O."""
        return np.diag(self.mass * self.grading.signs) + self.even_part + self.odd_part


def split_even_odd(h, grading: Grading, mass: float) -> DiracDecomposition:
    """Split a Hermitian Hamiltonian into mass, even, and odd pieces.

    beta * mass is subtracted before projecting, so mass * beta + E + O
    reproduces ``h`` up to rounding (~1e-16 relative).  NonHermitianInput
    if ``h`` is non-finite or deviates from Hermiticity by more than 1e-12,
    and ``require_mass``'s ValueError for a bad mass.
    """
    h = require_hermitian(grading.check(np.asarray(h, dtype=complex)), "Hamiltonian")
    x = h - np.diag(mass * grading.signs)  # no inf * 0 off the diagonal for a bad mass
    return DiracDecomposition(grading, mass, x, x)  # __post_init__ projects each part
