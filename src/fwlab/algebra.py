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

import numbers
import sys
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
    in memory order, are taken one by one.  A norm whose square overflows is inf, quietly.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
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
    """Relative Frobenius distance of ``a`` from its own adjoint; NaN once ||a||_F^2 overflows."""
    norm = frobenius(a)
    return frobenius(a - a.conj().T) / max(norm, NORM_FLOOR) if norm < np.inf else np.nan


def require_hermitian(a, name: str) -> np.ndarray:
    """``a``; DimensionMismatch unless a square matrix, NonHermitianInput if non-finite, of
    overflowing norm, or not Hermitian to 1e-12."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonHermitianInput(f"{name} has non-finite entries")
    defect = hermiticity_defect(a)
    if np.isnan(defect):
        raise NonHermitianInput(f"{name} has a Frobenius norm that overflows")
    if defect > HERMITICITY_RTOL:
        raise NonHermitianInput(f"{name} is not Hermitian within 1e-12")
    return a


def as_number(value, name: str, integer: bool = False, rule: str = "", shape: tuple = ()):
    """``value`` as a Python number, a numpy scalar read as the number it holds; ValueError
    "``name`` must be ``rule``, got ..." for a bool, a non-number, an int beyond float range
    where a real is due (never its repr, refused past 4300 digits) or, with ``integer``, a
    non-integer.  ``rule`` defaults to "an integer" or "a real number".  With ``shape`` (k,),
    or (None,) for any k, a list, tuple or 1-D array of k finite real numbers as a tuple of
    Python floats; ValueError naming ``name`` for another value, count or a non-finite entry."""
    if shape:
        if not isinstance(value, (list, tuple)) and np.ndim(value) != 1:
            raise ValueError(f"{name} must be a list, tuple or 1-D array, got {value!r}")
        if shape[0] is not None and len(value) != shape[0]:
            raise ValueError(f"{name} needs {shape[0]} entries, got {len(value)}")
        values = tuple(float(as_number(entry, name)) for entry in value)
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values}")
        return values
    value = value.item() if isinstance(value, np.generic) else value
    kind, default = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {rule or default}, got {value!r}")
    if not integer and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be {rule or default}, got an int beyond float range")
    return value


def require_mass(mass: float, norm: float = 0.0, name: str = ""):
    """ValueError unless 0 < mass < inf and ``norm``, of the part ``name``, over the mass < inf."""
    if not 0.0 < mass < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if not norm / float(mass) < np.inf:
        raise ValueError(f"{name} norm over mass {mass!r} overflows")


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
    to relative tolerance 1e-12, and their norms over the mass finite.
    """

    grading: Grading
    mass: float
    even_part: np.ndarray
    odd_part: np.ndarray

    def __post_init__(self):
        require_mass(self.mass)
        e = even_projection(np.asarray(self.even_part, dtype=complex), self.grading)
        o = odd_projection(np.asarray(self.odd_part, dtype=complex), self.grading)
        for part, name in ((e, "even part"), (o, "odd part")):
            require_mass(self.mass, frobenius(require_hermitian(part, name)), name)
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
