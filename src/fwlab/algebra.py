"""Grading algebra for Dirac-type Hamiltonians.

The grading involution beta = diag(+I, -I) splits operators into an even
sector (commuting with beta, block-diagonal) and an odd sector
(anticommuting with beta, block-off-diagonal).  Hamiltonians are handled
in the decomposed form

    H = beta * m + E + O,        beta E = E beta,   beta O = -O beta,

with E and O Hermitian.  Matrices are plain dense complex ndarrays, and
the grading is their shape: a 2n x 2n operand has beta = diag(I_n, -I_n),
upper block first, which ``beta_signs`` reads off it.
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
    DimensionMismatch for an operand of fewer than two dimensions, None among them.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatch(f"a must be a matrix or a stack of them, got shape {a.shape}")
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


def require_square(a, name: str):
    """``a``; DimensionMismatch "``name`` must be a square matrix, got ..." unless it is one, None
    named as None.  The one rule for a square operand."""
    if a is None or np.ndim(a) != 2 or np.shape(a)[0] != np.shape(a)[1]:
        got = "None" if a is None else f"shape {np.shape(a)}"
        raise DimensionMismatch(f"{name} must be a square matrix, got {got}")
    return a


def require_finite(a, name: str, error=NonHermitianInput):
    """``a``; ``error`` naming ``name`` for a non-finite entry, then for a Frobenius norm that
    overflows.  The one rule for a finite operand."""
    if not np.isfinite(a).all():
        raise error(f"{name} has non-finite entries")
    if not frobenius(a) < np.inf:
        raise error(f"{name} has a Frobenius norm that overflows")
    return a


def require_hermitian(a, name: str) -> np.ndarray:
    """``a``; ``require_square``'s and ``require_finite``'s errors, then NonHermitianInput unless
    Hermitian to 1e-12."""
    if hermiticity_defect(require_finite(require_square(a, name), name)) > HERMITICITY_RTOL:
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


def require_type(value, kind, name: str, rule: str = ""):
    """``value``; ValueError "``name`` must be ``rule``, got <its type's name>", never its repr,
    unless it is a ``kind``.  ``rule`` defaults to "a <kind's name>"."""
    if not isinstance(value, kind):
        rule = rule or f"a {kind.__name__}"
        raise ValueError(f"{name} must be {rule}, got {type(value).__name__}")
    return value


def require_mass(mass, norm: float = 0.0, name: str = "") -> float:
    """The mass, read by ``as_number``, as a float; ValueError unless 0 < mass < inf and
    ``norm``, of the part ``name``, over the mass < inf."""
    mass = as_number(mass, "mass")
    if not 0.0 < mass < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if not norm / float(mass) < np.inf:
        raise ValueError(f"{name} norm over mass {mass!r} overflows")
    return float(mass)


def beta_signs(operands: dict) -> np.ndarray:
    """Diagonal of beta = diag(I_n, -I_n), +1 on the upper block, on the one shape that every
    operand of ``operands``, {name: a 2n x 2n matrix, a stack of them, a Spectrum or None to
    skip}, must have.  DimensionMismatch naming the first operand that is not 2n x 2n for some
    n >= 1 or not of the first one's shape, with its own shape, or the first when all are None."""
    first = None
    for name, a in operands.items():
        if a is None:
            continue
        shape = np.shape(getattr(a, "matrix", a))  # a Spectrum's shape is its matrix's
        if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] % 2 or not shape[-1]:
            raise DimensionMismatch(f"{name} must be 2n x 2n, n >= 1, got shape {shape}")
        if first is not None and shape != first[1]:
            raise DimensionMismatch(
                f"{name} must have the shape {first[1]} of {first[0]}, got shape {shape}")
        first = first or (name, shape)
    if first is None:
        raise DimensionMismatch(f"{next(iter(operands))} must be 2n x 2n, n >= 1, got None")
    return np.repeat([1.0, -1.0], first[1][-1] // 2)


def make_beta(dim: int) -> np.ndarray:
    """Dense beta = diag(I_n, -I_n) of dimension ``dim`` = 2n, n >= 1, checked before building."""
    if (dim := as_number(dim, "dim", integer=True)) < 2 or dim % 2:
        raise DimensionMismatch(f"dim must be 2n, n >= 1, got {dim}")
    return np.diag(np.repeat([1.0, -1.0], dim // 2)).astype(complex)


def even_projection(h) -> np.ndarray:
    """Block-diagonal part of ``h``, equal to (h + beta h beta) / 2."""
    signs = beta_signs({"h": h})
    return np.where(signs[:, None] == signs, h, 0j)


def odd_projection(h) -> np.ndarray:
    """Block-off-diagonal part of ``h``, equal to (h - beta h beta) / 2."""
    signs = beta_signs({"h": h})
    return np.where(signs[:, None] != signs, h, 0j)


def odd_norm_ratio(h):
    """Fraction of ``h`` living in the odd sector, of each slice on a stack.

    Returns ||odd part||_F / max(||h||_F, NORM_FLOOR).  Zero exactly when
    ``h`` is block-diagonal; this is the convergence measure used by the
    iterative scheme and the block-diagonality diagnostic.
    """
    return relative_norm(odd_projection(h), h)


@dataclass(frozen=True)
class DiracDecomposition:
    """Splitting H = beta * mass + even_part + odd_part.

    ``even_part`` commutes with beta and is stored with its off-diagonal
    blocks exactly zero; ``odd_part`` anticommutes and is stored with its
    diagonal blocks exactly zero.  Both parts must be finite and Hermitian
    to relative tolerance 1e-12, and their norms over the mass finite.
    """

    mass: float
    even_part: np.ndarray
    odd_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", require_mass(self.mass))
        e, o = (np.asarray(x, dtype=complex) for x in (self.even_part, self.odd_part))
        beta_signs({"even part": e, "odd part": o})
        e, o = even_projection(e), odd_projection(o)
        for part, name in ((e, "even part"), (o, "odd part")):
            require_mass(self.mass, frobenius(require_hermitian(part, name)), name)
        object.__setattr__(self, "even_part", e)
        object.__setattr__(self, "odd_part", o)

    def hamiltonian(self) -> np.ndarray:
        """Reassemble beta * mass + E + O."""
        signs = beta_signs({"even part": self.even_part})
        return np.diag(self.mass * signs) + self.even_part + self.odd_part


def split_even_odd(h, mass: float) -> DiracDecomposition:
    """Split a Hermitian Hamiltonian into mass, even, and odd pieces.

    beta * mass is subtracted before projecting, so mass * beta + E + O
    reproduces ``h`` up to rounding (~1e-16 relative).  DimensionMismatch
    unless ``h`` is 2n x 2n, NonHermitianInput if it is non-finite or deviates
    from Hermiticity by more than 1e-12, and ``require_mass``'s ValueError
    for a bad mass.
    """
    signs = beta_signs({"Hamiltonian": h})
    h = require_hermitian(np.asarray(h, dtype=complex), "Hamiltonian")
    x = h - np.diag(require_mass(mass) * signs)  # the mass read before it meets H
    return DiracDecomposition(mass, x, x)  # __post_init__ projects each part
