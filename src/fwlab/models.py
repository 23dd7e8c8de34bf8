"""Model builders: small graded Hamiltonians with known structure.

Each builder returns the triple (hamiltonian, grading, decomposition) so
that callers never re-derive the even/odd split.  The catalog covers the
4x4 free particle, a two-component Dirac operator on a periodic 1D grid
with a scalar potential, seeded synthetic Hamiltonians whose even and odd
parts commute by construction, and explicit matrices loaded from disk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import DiracDecomposition, Grading, require_hermitian, require_mass, split_even_odd
from .errors import InvalidGrid, ParseError
from .fileio import read_matrix, read_potential_table

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

# Standard 4x4 Dirac matrices, beta = diag(1, 1, -1, -1).
DIRAC_BETA = np.kron(_SIGMA_Z, _EYE2)
DIRAC_ALPHA = tuple(
    np.kron(_SIGMA_X, sigma) for sigma in (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)
)

KIND_FREE = "free"
KIND_LATTICE = "lattice"
KIND_SYNTHETIC = "synthetic"
KIND_EXPLICIT = "matrix"

POTENTIAL_PARAM_COUNTS = {
    "zero": 0,
    "constant": 1,   # (value,)
    "gaussian": 2,   # (strength, width)
    "step": 2,       # (strength, edge)
    "linear": 1,     # (slope,)
}


@dataclass(frozen=True)
class Potential:
    """Scalar potential on the lattice, from a closed catalog or a table."""

    kind: str
    params: tuple[float, ...] = ()
    table: tuple[float, ...] | None = None
    source: str | None = None

    def __post_init__(self):
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated potential needs a value table")
            return
        expected = POTENTIAL_PARAM_COUNTS.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if len(self.params) != expected:
            raise ValueError(
                f"potential {self.kind!r} takes {expected} parameter(s), "
                f"got {len(self.params)}"
            )
        if not np.isfinite(self.params).all():
            raise ValueError(f"potential {self.kind!r} needs finite parameters, got {self.params}")
        if self.kind == "gaussian" and not self.params[1] > 0.0:
            raise ValueError("gaussian width must be positive")

    def sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.params[0])
        if self.kind == "gaussian":
            strength, width = self.params
            return strength * np.exp(-((x / width) ** 2))
        if self.kind == "step":
            strength, edge = self.params
            return np.where(x >= edge, strength, 0.0)
        if self.kind == "linear":
            return self.params[0] * x
        if len(self.table) != len(x):   # tabulated, the one kind left
            raise ParseError(
                f"tabulated potential has {len(self.table)} values "
                f"but the grid has {len(x)} sites",
                path=self.source,
            )
        return np.asarray(self.table, dtype=float)

    def with_strength(self, value: float) -> "Potential":
        if self.kind in ("zero", "tabulated"):
            raise ValueError(f"potential {self.kind!r} has no strength parameter")
        return replace(self, params=(float(value),) + self.params[1:])

    def describe(self) -> str:
        if self.kind == "tabulated":
            if self.source:
                return f"file:{self.source}"
            return f"tabulated:{len(self.table)}"
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(repr(float(p)) for p in self.params)


def parse_potential(text: str) -> Potential:
    """Parse the ``name:params`` / ``file:path`` descriptor mini-syntax."""
    name, _, remainder = text.partition(":")
    name = name.strip()
    if name == "file":
        if not remainder:
            raise ParseError("file potential needs a path, e.g. file:values.txt")
        values = read_potential_table(remainder)
        return Potential("tabulated", table=tuple(values), source=remainder)
    if name not in POTENTIAL_PARAM_COUNTS:
        known = ", ".join(sorted(POTENTIAL_PARAM_COUNTS) + ["file"])
        raise ParseError(f"unknown potential {name!r}; known: {known}")
    params = ()
    if remainder:
        try:
            params = tuple(float(tok) for tok in remainder.split(","))
        except ValueError as exc:
            raise ParseError(f"bad potential parameters {remainder!r}") from exc
    try:
        return Potential(name, params)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def build_free_particle(mass: float, momentum) -> tuple[np.ndarray, Grading, DiracDecomposition]:
    """4x4 free-particle Hamiltonian beta m + alpha . p.

    The even part vanishes and the odd part is alpha . p, so this model is
    commuting for every momentum; the spectrum is +-sqrt(m^2 + |p|^2),
    each twofold.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape != (3,):
        raise ValueError(f"momentum must have three components, got {momentum.shape}")
    grading = Grading(4, 2)
    h = mass * DIRAC_BETA
    for component, alpha in zip(momentum, DIRAC_ALPHA):
        h = h + component * alpha
    return h, grading, split_even_odd(h, grading, mass)


def build_lattice_1d(n: int, length: float, mass: float,
                     potential: Potential) -> tuple[np.ndarray, Grading, DiracDecomposition]:
    """Two-component Dirac operator on a periodic grid of n sites.

    Sites sit at x_j = -L + (j + 1/2) * (2L / n); the momentum operator is
    the central difference -i d/dx with periodic wrap-around, so for zero
    potential the spectrum is +-sqrt(m^2 + (sin(2 pi j / n) / dx)^2).
    Layout is upper component block first: beta = diag(I_n, -I_n), the
    kinetic term is purely odd, and the potential is even.

    Raises InvalidGrid for n < 4 or odd n or a nonpositive or non-finite length.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidGrid(f"need an even site count of at least 4, got {n}")
    if not 0.0 < length < np.inf:
        raise InvalidGrid(f"box half-length must be positive and finite, got {length}")
    dx = 2.0 * length / n
    x = -length + (np.arange(n) + 0.5) * dx
    shift = np.eye(n, dtype=complex)
    forward = np.roll(shift, -1, axis=0)   # forward[j, j+1] = 1 with wrap
    momentum = (-1.0j / (2.0 * dx)) * (forward - forward.T)
    v = np.asarray(potential.sample(x), dtype=float)
    h = (
        mass * np.kron(_SIGMA_Z, np.eye(n, dtype=complex))
        + np.kron(_SIGMA_X, momentum)
        + np.kron(_EYE2, np.diag(v).astype(complex))
    )
    grading = Grading(2 * n, n)
    return h, grading, split_even_odd(h, grading, mass)


def build_synthetic_commuting(n: int, mass: float, poly, seed) -> tuple[np.ndarray, Grading, DiracDecomposition]:
    """Seeded random model whose even part is a polynomial in O^2.

    A random complex n x n block B gives the odd part O = [[0, B], [B^H, 0]];
    the even part sum_k poly[k] (O^2)^k then commutes with O identically,
    so the closed forms apply.  Entries of B are scaled so that ||O||_2
    stays near 2 independent of n.
    """
    if n < 2:
        raise ValueError(f"block size must be at least 2, got {n}")
    poly = tuple(poly)
    if not np.isfinite(poly).all():
        raise ValueError(f"poly must be finite, got {poly}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * n)
    block = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    odd = np.zeros((2 * n, 2 * n), dtype=complex)
    odd[:n, n:] = block
    odd[n:, :n] = block.conj().T
    odd_sq = odd @ odd
    even = np.zeros_like(odd)
    for coefficient in reversed(poly):
        even = even @ odd_sq + coefficient * np.eye(2 * n)
    grading = Grading(2 * n, n)
    decomposition = DiracDecomposition(grading, mass, even, odd)
    return decomposition.hamiltonian(), grading, decomposition


def load_explicit_matrix(path) -> tuple[np.ndarray, Grading]:
    """Load a graded matrix file; NonHermitianInput naming the file unless it
    is Hermitian within HERMITICITY_RTOL = 1e-12, the tolerance of ``split_even_odd``."""
    entries, grading = read_matrix(path)
    return require_hermitian(entries, f"{path}: matrix"), grading


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a model run; drives builds and reports."""

    kind: str
    mass: float
    momentum: tuple[float, float, float] | None = None
    n: int | None = None
    length: float | None = None
    potential: Potential | None = None
    path: str | None = None
    poly: tuple[float, ...] = ()
    seed: int | None = None

    def describe(self) -> str:
        if self.kind == KIND_FREE:
            p = ",".join(repr(float(c)) for c in self.momentum)
            return f"free(mass={self.mass!r}, p={p})"
        if self.kind == KIND_LATTICE:
            return (
                f"lattice(n={self.n}, L={float(self.length)!r}, mass={self.mass!r}, "
                f"potential={self.potential.describe()}, seed={self.seed})"
            )
        if self.kind == KIND_SYNTHETIC:
            poly = ",".join(repr(float(c)) for c in self.poly)
            return f"synthetic(n={self.n}, mass={self.mass!r}, poly=[{poly}], seed={self.seed})"
        if self.kind == KIND_EXPLICIT:
            return f"matrix(path={self.path}, mass={self.mass!r})"
        raise ValueError(f"unknown model kind {self.kind!r}")


# The ModelSpec fields each kind reads; build_model rejects a spec missing any.
_REQUIRED_FIELDS = {
    KIND_FREE: ("momentum",),
    KIND_LATTICE: ("n", "length", "potential"),
    KIND_SYNTHETIC: ("n",),
    KIND_EXPLICIT: ("path",),
}


def build_model(spec: ModelSpec) -> tuple[np.ndarray, Grading, DiracDecomposition]:
    """Build the (hamiltonian, grading, decomposition) triple for a spec.

    ValueError for a bad mass, an unknown kind, or a missing field its kind reads.
    """
    require_mass(spec.mass)
    required = _REQUIRED_FIELDS.get(spec.kind)
    if required is None:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    if any(getattr(spec, name) is None for name in required):
        raise ValueError(f"{spec.kind} model needs {', '.join(required)}")
    if spec.kind == KIND_FREE:
        return build_free_particle(spec.mass, spec.momentum)
    if spec.kind == KIND_LATTICE:
        return build_lattice_1d(spec.n, spec.length, spec.mass, spec.potential)
    if spec.kind == KIND_SYNTHETIC:
        return build_synthetic_commuting(spec.n, spec.mass, spec.poly, spec.seed)
    h, grading = load_explicit_matrix(spec.path)
    return h, grading, split_even_odd(h, grading, spec.mass)
