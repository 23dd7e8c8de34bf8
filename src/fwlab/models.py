"""Model builders: small graded Hamiltonians with known structure.

Each builder returns the pair (hamiltonian, decomposition) so that
callers never re-derive the even/odd split; a 2n x 2n H is graded by
beta = diag(I_n, -I_n), and 2n is at most MAX_DIM.  The catalog covers the
4x4 free particle, a two-component Dirac operator on a periodic 1D grid
with a scalar potential, seeded synthetic Hamiltonians whose even and odd
parts commute by construction, and explicit matrices loaded from disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (DiracDecomposition, as_number, require_hermitian, require_mass,
                      require_type, split_even_odd)
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

# Largest dimension 2n a builder makes, 8x the largest in use; a larger n fails before allocating.
MAX_DIM = 2048

# Each analytic potential as V(x, *params); its parameters are the names after x, and a width
# must be positive.  "tabulated", a table of values read from a file, is the one other kind.
POTENTIALS = {
    "zero": lambda x: np.zeros_like(x),
    "constant": lambda x, value: np.full_like(x, value),
    "gaussian": lambda x, strength, width: strength * np.exp(-((x / width) ** 2)),
    "step": lambda x, strength, edge: np.where(x >= edge, strength, 0.0),
    "linear": lambda x, slope: slope * x,
}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass(frozen=True)
class Potential:
    """Scalar potential on the lattice, from ``POTENTIALS`` or a table; ``params``, as many as
    its V takes after x, and ``table`` are read by ``as_number`` as tuples of floats."""

    kind: str
    params: tuple[float, ...] = ()
    table: tuple[float, ...] | None = None
    source: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in {*POTENTIALS, "tabulated"}:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated potential needs a value table")
            table = as_number(self.table, "potential table", shape=(None,))
            object.__setattr__(self, "table", table)
            return
        code = POTENTIALS[self.kind].__code__
        names = code.co_varnames[1:code.co_argcount]   # V's parameters after x
        params = as_number(self.params, f"potential {self.kind!r} parameter", shape=(len(names),))
        if "width" in names and not params[names.index("width")] > 0.0:
            raise ValueError(f"{self.kind} width must be positive")
        object.__setattr__(self, "params", params)

    def sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind != "tabulated":
            with np.errstate(over="ignore"):  # a Gaussian far outside its width is exactly 0
                return POTENTIALS[self.kind](x, *self.params)
        if len(self.table) != len(x):
            raise ParseError(f"tabulated potential has {len(self.table)} values "
                             f"but the grid has {len(x)} sites", path=self.source)
        return np.array(self.table)

    def with_strength(self, value: float) -> "Potential":
        if self.kind == "tabulated" or not self.params:
            raise ValueError(f"potential {self.kind!r} has no strength parameter")
        return replace(self, params=(value,) + self.params[1:])

    def describe(self) -> str:
        if self.kind == "tabulated":
            return f"file:{self.source}" if self.source else f"tabulated:{len(self.table)}"
        return f"{self.kind}:{_floats(self.params)}" if self.params else self.kind


def parse_potential(text: str) -> Potential:
    """Parse the ``name:params`` / ``file:path`` descriptor mini-syntax."""
    name, _, remainder = require_type(text, str, "potential").partition(":")
    name = name.strip()
    if name == "file":
        if not remainder:
            raise ParseError("file potential needs a path, e.g. file:values.txt")
        values = read_potential_table(remainder)
        return Potential("tabulated", table=tuple(values), source=remainder)
    if name not in POTENTIALS:
        known = ", ".join(sorted(POTENTIALS) + ["file"])
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


def require_size(n: int, error=ValueError):
    """``error`` naming n, past float range without its repr, unless 2n <= MAX_DIM."""
    if 2 * n > MAX_DIM:
        shown = n if n < 2 ** 1024 else "an int beyond float range"
        raise error(f"n = {shown} exceeds {MAX_DIM // 2}, as 2n is at most MAX_DIM = {MAX_DIM}")


def build_free_particle(mass: float, momentum) -> tuple[np.ndarray, DiracDecomposition]:
    """4x4 free-particle Hamiltonian beta m + alpha . p.

    The even part vanishes and the odd part is alpha . p, so this model is
    commuting for every momentum; the spectrum is +-sqrt(m^2 + |p|^2),
    each twofold.
    """
    mass = require_mass(mass)
    h = mass * DIRAC_BETA
    for component, alpha in zip(as_number(momentum, "momentum", shape=(3,)), DIRAC_ALPHA):
        h = h + component * alpha
    return h, split_even_odd(h, mass)


def build_lattice_1d(n: int, length: float, mass: float,
                     potential: Potential) -> tuple[np.ndarray, DiracDecomposition]:
    """Two-component Dirac operator on a periodic grid of n sites.

    Sites sit at x_j = -L + (j + 1/2) * (2L / n); the momentum operator is
    the central difference -i d/dx with periodic wrap-around, so for zero
    potential the spectrum is +-sqrt(m^2 + (sin(2 pi j / n) / dx)^2).
    Layout is upper component block first: beta = diag(I_n, -I_n), the
    kinetic term is purely odd, and the potential is even.

    Raises InvalidGrid for 2n > MAX_DIM, n < 4, odd n, or a dx or 1/(2 dx) not positive and
    finite, and ValueError for an n, length (``as_number``) or mass (``require_mass``) not a
    number or a potential not a Potential.
    """
    n, length, mass = as_number(n, "n", True), as_number(length, "length"), require_mass(mass)
    require_type(potential, Potential, "potential")
    require_size(n, InvalidGrid)
    if n < 4 or n % 2 != 0:
        raise InvalidGrid(f"need an even site count of at least 4, got {n}")
    dx = 2.0 * length / n
    if not (0.0 < dx < np.inf and 1.0 / (2.0 * dx) < np.inf):
        raise InvalidGrid(f"need a spacing dx = 2L/n with dx and 1/(2 dx) positive and finite, "
                          f"got L = {length}, n = {n}")
    x = -length + (np.arange(n) + 0.5) * dx
    forward = np.roll(np.eye(n, dtype=complex), -1, axis=0)   # forward[j, j+1] = 1 with wrap
    v = potential.sample(x)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = h[n:, :n] = (-1.0j / (2.0 * dx)) * (forward - forward.T)  # the momentum
    h[:n, :n], h[n:, n:] = np.diag(mass + v), np.diag(-mass + v)
    h += 0.0  # as in the sum m sigma_z x 1 + sigma_x x P + 1 x V, no -0.0 part of P survives
    return h, split_even_odd(h, mass)


def build_synthetic_commuting(n: int, mass: float, poly, seed) -> tuple[np.ndarray, DiracDecomposition]:
    """Seeded random model whose even part is a polynomial in O^2.

    A random complex n x n block B gives the odd part O = [[0, B], [B^H, 0]];
    the even part sum_k poly[k] (O^2)^k then commutes with O identically,
    so the closed forms apply.  Entries of B are scaled so that ||O||_2
    stays near 2 independent of n.  ValueError for 2n > MAX_DIM, n < 2, or a non-integer n or seed.
    """
    n, seed = as_number(n, "n", True), as_number(seed, "seed", True)
    require_size(n)
    if n < 2:
        raise ValueError(f"block size must be at least 2, got {n}")
    poly = as_number(poly, "poly", shape=(None,))
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
    decomposition = DiracDecomposition(mass, even, odd)
    return require_hermitian(decomposition.hamiltonian(), "Hamiltonian"), decomposition


def load_explicit_matrix(path) -> np.ndarray:
    """Load a graded matrix file; NonHermitianInput naming the file unless it
    is Hermitian within HERMITICITY_RTOL = 1e-12, the tolerance of ``split_even_odd``."""
    return require_hermitian(read_matrix(path), f"{path}: matrix")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a model run.  ``as_number`` reads each number and, in the
    builders, vector; ``potential`` is a ``Potential`` and ``path`` a str or os.PathLike."""

    kind: str
    mass: float
    momentum: tuple[float, float, float] | None = None
    n: int | None = None
    length: float | None = None
    potential: Potential | None = None
    path: str | None = None
    poly: tuple[float, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mass", as_number(self.mass, "mass"))
        for name, integer in (("length", False), ("n", True), ("seed", True)):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, as_number(value, name, integer))
        require_size(self.n or 0)  # the builders' size rule, before describe prints n
        if not isinstance(self.potential, (Potential, type(None))):
            raise ValueError(f"potential must be a Potential, got {self.potential!r}")
        if not isinstance(self.path, (str, os.PathLike, type(None))):  # open(True) opens fd 1
            raise ValueError(f"path must be a str or os.PathLike, got {self.path!r}")

    def describe(self) -> str:
        """One-line descriptor; ValueError for an unknown kind or a missing field."""
        _, describe = _kind(self)
        return describe(self)


# Each model kind: the ModelSpec fields it reads, its builder and its descriptor.
_KINDS = {
    KIND_FREE: (("momentum",), lambda s: build_free_particle(s.mass, s.momentum),
                lambda s: f"free(mass={s.mass!r}, p={_floats(s.momentum)})"),
    KIND_LATTICE: (("n", "length", "potential"),
                   lambda s: build_lattice_1d(s.n, s.length, s.mass, s.potential),
                   lambda s: (f"lattice(n={s.n}, L={float(s.length)!r}, mass={s.mass!r}, "
                              f"potential={s.potential.describe()}, seed={s.seed})")),
    KIND_SYNTHETIC: (("n", "seed"),
                     lambda s: build_synthetic_commuting(s.n, s.mass, s.poly, s.seed),
                     lambda s: (f"synthetic(n={s.n}, mass={s.mass!r}, "
                                f"poly=[{_floats(s.poly)}], seed={s.seed})")),
    KIND_EXPLICIT: (("path",),
                    lambda s: ((h := load_explicit_matrix(s.path)), split_even_odd(h, s.mass)),
                    lambda s: f"matrix(path={s.path}, mass={s.mass!r})"),
}


def _kind(spec: ModelSpec):
    """(builder, descriptor) of a spec's kind; ValueError for an unknown kind or a missing field
    it reads."""
    if not isinstance(spec.kind, str) or spec.kind not in _KINDS:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    fields, build, describe = _KINDS[spec.kind]
    if any(getattr(spec, name) is None for name in fields):
        raise ValueError(f"{spec.kind} model needs {', '.join(fields)}")
    return build, describe


def build_model(spec: ModelSpec) -> tuple[np.ndarray, DiracDecomposition]:
    """Build the (hamiltonian, decomposition) pair for a spec.

    ValueError for a non-ModelSpec, a bad mass, an unknown kind or a missing field its kind reads.
    """
    build, _ = _kind(require_type(spec, ModelSpec, "spec"))
    return build(spec)
