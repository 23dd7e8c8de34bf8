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
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Absolute floor used in relative norms so that 0/0 never occurs.
NORM_FLOOR = 1e-300

# Relative Hermiticity tolerance applied to operator inputs.
HERMITICITY_RTOL = 1e-12


def frobenius(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def relative_norm(num, den) -> float:
    """Frobenius norm of ``num`` relative to that of ``den``, floored."""
    return frobenius(num) / max(frobenius(den), NORM_FLOOR)


def commutator(a, b):
    return a @ b - b @ a


def anticommutator(a, b):
    return a @ b + b @ a


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
        """Return ``a`` as an ndarray after verifying its shape."""
        a = np.asarray(a)
        if a.shape != (self.dim, self.dim):
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
    h = grading.check(h)
    u = grading.upper_dim
    out = np.zeros((grading.dim, grading.dim), dtype=complex)
    out[:u, :u] = h[:u, :u]
    out[u:, u:] = h[u:, u:]
    return out


def odd_projection(h, grading: Grading) -> np.ndarray:
    """Block-off-diagonal part of ``h``, equal to (h - beta h beta) / 2."""
    h = grading.check(h)
    u = grading.upper_dim
    out = np.zeros((grading.dim, grading.dim), dtype=complex)
    out[:u, u:] = h[:u, u:]
    out[u:, :u] = h[u:, :u]
    return out


def odd_norm_ratio(h, grading: Grading) -> float:
    """Fraction of ``h`` living in the odd sector.

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

    @cached_property
    def odd_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SVD (P, sigma, Q^H) of the upper-right block B of O = [[0, B], [B^H, 0]], taken once."""
        return np.linalg.svd(self.odd_part[:self.grading.upper_dim, self.grading.upper_dim:])

    def hamiltonian(self) -> np.ndarray:
        """Reassemble beta * mass + E + O."""
        return self.mass * make_beta(self.grading) + self.even_part + self.odd_part


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
