"""Dense matrix-function kernels on Hermitian and unitary operands.

A ``Spectrum`` is a Hermitian matrix with its ``numpy.linalg.eigh`` pair
(w, V).  Every Hermitian kernel takes a matrix or a Spectrum and returns
``apply(f)`` = V diag(f(w)) V^H, so one eigh of an operand serves them all.
This realizes the principal-branch convention uniformly: the inverse root
of a positive operator is the positive one, the sign of H comes from the
eigenvalues of H itself, and the logarithm of a unitary, taken from its
Hermitian Cayley transform, has eigenphases in (-pi, pi).  ``odd_rotation``
and ``even_function`` assemble odd exponentials and even functions from SVD factors.
``check_gap`` is the one rule for when an eigenvalue counts as zero and ``check_unitarity`` the one
unitarity verdict; ``unitary_log`` checks its U by ``algebra``'s square and finite rules, and
``unitary_log_stack`` trusts its caller's.  Kernels run on stacks, each slice
bit for bit its own call; a ``*_stack`` kernel takes first the ``Slices`` of the models left, and
its single-model name is its stack of one.  Every name that computes a report row runs under
``single_blas_thread``, so it gives the row's bits at any caller's BLAS count; these kernels, the
oracle closed forms and ``exponent_oddness`` do not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .algebra import (NORM_FLOOR, adjoint, frobenius, require_finite, require_hermitian,
                      require_square)
from .errors import (BranchCutProximity, DimensionMismatch, FWLabError, NonHermitianInput,
                     NotUnitary, SingularHamiltonian, SingularOperand)

# Relative spectral-gap tolerance; read only by ``check_gap``.
GAP_RTOL = 1e-10

# Minimum distance of a unitary eigenphase from the +-pi branch cut.
BRANCH_MARGIN = 1e-8

# Absolute tolerance on ||U^H U - 1||_F of accepted transforms; read only by ``check_unitarity``.
UNITARY_TOL = 1e-10

# (get, set) thread-count entry points of the OpenBLAS builds numpy ships: its 64-bit-integer
# build, its 32-bit one, then a system library.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_pins = SimpleNamespace(lock=threading.Lock(), open=0, saved=None)  # see single_blas_thread


@functools.cache
def numpy_openblas():
    """(get, set) thread-count functions of the OpenBLAS that runs numpy's linalg, or None when
    numpy uses another BLAS: looked up through the handle of numpy's ``_umath_linalg``, which
    links it, so nothing is loaded and another library's OpenBLAS is not seen."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):  # no RTLD_NOLOAD, as on Windows
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name):
            return (ctypes.CFUNCTYPE(ctypes.c_int)((get_name, lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((set_name, lib)))
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and yield True, or yield False when
    numpy runs on another BLAS.  The first of overlapping entries saves the thread count, and
    the last one out restores it.  At dim <= ~256 threaded BLAS is slower than serial.
    """
    controls = numpy_openblas()
    if controls is None:
        yield False
        return
    get, set_ = controls
    with _pins.lock:
        if not _pins.open:
            _pins.saved = get()
            set_(1)
        _pins.open += 1
    try:
        yield True
    finally:
        with _pins.lock:
            _pins.open -= 1
            if not _pins.open:
                set_(_pins.saved)


def _hermitize(a):
    # (a + a^H) / 2, the real and imaginary parts of the sum written in place
    out = np.empty_like(a)
    np.add(a.real, a.real.swapaxes(-1, -2), out=out.real)
    if np.iscomplexobj(a):
        np.subtract(a.imag, a.imag.swapaxes(-1, -2), out=out.imag)
    out *= 0.5
    return out


class Slices:
    """Models of a stack still in a computation: ``index[slot]`` is each slice's model, and
    ``errors`` maps each model that left to the (FWLabError type, message) it raises alone."""

    def __init__(self, count: int):
        self.index, self.errors = list(range(count)), {}

    def gate(self, test, *stacks):
        """``stacks`` without the slices where ``test(slot)`` raises an FWLabError, recorded as
        the model's error; the last one is raised when none is left."""
        keep = []
        for slot, model in enumerate(self.index):
            try:
                test(slot)
            except FWLabError as exc:
                self.errors[model] = type(exc), str(exc)
            else:
                keep.append(slot)
        if not keep:
            (kind, message), self.index = self.errors[self.index[-1]], []
            raise kind(message)
        if len(keep) < len(self.index):
            self.index = [self.index[slot] for slot in keep]
            stacks = tuple(stack[keep] for stack in stacks)
        return stacks

    def solve(self, a, b, error, what: str, *stacks):
        """(np.linalg.solve(a, b), *stacks); a slice LAPACK finds singular leaves with error(what)."""
        def regular(slot):
            try:
                np.linalg.solve(a[slot], b[slot])
            except np.linalg.LinAlgError as exc:
                raise error(what) from exc
        try:
            return (np.linalg.solve(a, b), *stacks)
        except np.linalg.LinAlgError:
            a, b, *stacks = self.gate(regular, a, b, *stacks)
            return (np.linalg.solve(a, b), *stacks)


def check_gap(values, error, what: str, scale=None):
    """The gap rule: ``error`` when min ``values`` < GAP_RTOL * max(scale, NORM_FLOOR).

    ``values`` are an operand's eigenvalues, or |w| for a Hermitian H, and ``scale`` defaults to
    max |values|, its 2-norm; values of a natural scale, as cos^2 theta in (0, 1], pass it.  The
    comparison is signed, so a negative eigenvalue of a positive operand fails too.
    """
    smallest = float(np.min(values))
    floor = GAP_RTOL * max(float(np.max(np.abs(values))) if scale is None else scale, NORM_FLOOR)
    if not smallest >= floor:
        raise error(f"{what} {smallest:.3e} is below the gap tolerance {floor:.3e}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A Hermitian matrix with its eigenvalues ``w`` (ascending) and eigenvectors ``v``."""

    matrix: np.ndarray
    w: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, x, name: str = "operand") -> "Spectrum":
        """``x`` itself when it is a Spectrum, else one ``eigh`` of the matrix ``x``.

        eigh reads one triangle, so a non-Hermitian ``x`` raises NonHermitianInput naming it.
        """
        if isinstance(x, cls):
            return x
        x = require_hermitian(np.asarray(x, dtype=complex), name)
        return cls(x, *np.linalg.eigh(x))

    @classmethod
    def of_stack(cls, x, slices: Slices, *stacks):
        """(Spectrum without the matrix, *stacks) of the Hermitian part of a stack ``x``: one eigh;
        a slice fails ``of``'s check only when not finite, and then leaves ``slices``."""
        x = _hermitize(np.asarray(x, dtype=complex))
        if not np.isfinite(x).all():
            x, *stacks = slices.gate(lambda slot: require_hermitian(x[slot], "operand"), x, *stacks)
        return (cls(None, *np.linalg.eigh(x)), *stacks)

    def __getitem__(self, key) -> "Spectrum":
        """The Spectrum of a slice, or the stack of the slices ``key`` selects."""
        return Spectrum(*(None if x is None else x[key] for x in (self.matrix, self.w, self.v)))

    def apply(self, f) -> np.ndarray:
        """Hermitian V diag(f(w)) V^H, of each slice on a stack."""
        return _hermitize((self.v * f(self.w)[..., None, :]) @ adjoint(self.v))


@dataclass(frozen=True)
class SpectralGapReport:
    """Smallest |eigenvalue| of a Hermitian operand and the gap verdict."""

    min_abs_eigenvalue: float
    is_definite: bool


def spectral_gap(h) -> SpectralGapReport:
    """Measure the spectral gap of a Hermitian matrix or Spectrum around zero.

    ``is_definite`` is the verdict of ``require_gap``: min |w| clears
    GAP_RTOL * max |w|, the gap rule ``check_gap`` at the 2-norm of h.
    """
    h = Spectrum.of(h)
    try:
        require_gap(h)
    except SingularHamiltonian:
        definite = False
    else:
        definite = True
    return SpectralGapReport(float(np.min(np.abs(h.w))), definite)


def inv_sqrt_stack(slices: Slices, a: Spectrum, *stacks):
    """(Inverse principal root P, P a P = 1, of each Hermitian PD slice of a stacked Spectrum
    ``a``, *stacks) of the slices left; one whose least eigenvalue fails ``check_gap`` leaves."""
    a, *stacks = slices.gate(lambda slot: check_gap(a.w[slot], SingularOperand,
                                                    "smallest eigenvalue"), a, *stacks)
    return (a.apply(lambda w: 1.0 / np.sqrt(w)), *stacks)


def require_gap(h) -> Spectrum:
    """Spectrum of ``h``; SingularHamiltonian when |w| fails ``check_gap``: min |w| is
    below GAP_RTOL * max |w|, where the sign operator's error eps / min |w| grows."""
    h = Spectrum.of(h)
    check_gap(np.abs(h.w), SingularHamiltonian, "no spectral gap at zero: smallest |eigenvalue|")
    return h


def sign_operator(h) -> np.ndarray:
    """Matrix sign V diag(sign w) V^H of a gapped Hermitian matrix or Spectrum.

    The result is a Hermitian involution whose +1 / -1 eigenspaces are the
    positive / negative spectral subspaces of ``h``; taken from eigh of h,
    not of h @ h, its error grows like eps / delta at relative gap delta.
    """
    return require_gap(h).apply(np.sign)


def unitary_log(u) -> np.ndarray:
    """Hermitian generator S with u = exp(i S) and eigenvalues in (-pi, pi).

    A numerically unitary u is normal, so its Cayley transform
    T = i (1 - u)(1 + u)^(-1) is Hermitian with eigenvalues tan(theta / 2):
    one eigh T = Q diag(w) Q^H gives S = Q diag(2 arctan w) Q^H.  For an
    eigenphase within delta of +-pi the relative error of S grows like
    eps / delta (about 1e-12 at delta = 1e-4, 1e-8 near BRANCH_MARGIN).
    Raises ``require_square``'s DimensionMismatch, NotUnitary from ``require_finite`` or if
    ||u^H u - 1||_F exceeds UNITARY_TOL (checks ``unitary_log_stack`` trusts), and
    BranchCutProximity if 1 + u is singular or an eigenphase is within BRANCH_MARGIN of +-pi.
    """
    u = np.asarray(require_square(u, "U"), dtype=complex)
    require_finite(u, "U", NotUnitary)
    return unitary_log_stack(Slices(1), u[None], [frobenius(adjoint(u) @ u - np.eye(len(u)))])[0]


def check_unitarity(defect):
    """The unitarity verdict: NotUnitary unless a U's ||U^H U - 1||_F ``defect`` <= UNITARY_TOL."""
    if not defect <= UNITARY_TOL:
        raise NotUnitary(f"||U^H U - 1||_F = {defect:.3e} exceeds {UNITARY_TOL:.1e}")


def unitary_log_stack(slices: Slices, u, defect) -> np.ndarray:
    """``unitary_log`` of each slice of a finite stack ``u`` left, whose ||u^H u - 1||_F the
    caller measured: ``defect[slot]``, to which only ``check_unitarity`` is applied here."""
    eye = np.eye(u.shape[-1])
    u, = slices.gate(lambda slot: check_unitarity(defect[slot]), u)
    cayley, = slices.solve(eye + u, eye - u, BranchCutProximity,
                           "1 + U is singular: eigenphase on the branch cut")
    cayley *= 1j
    t, = Spectrum.of_stack(cayley, slices)
    del cayley
    margin = np.min(np.pi - np.abs(2.0 * np.arctan(t.w)), axis=-1)

    def clear(slot):
        if margin[slot] < BRANCH_MARGIN:
            raise BranchCutProximity(
                f"eigenphase within {float(margin[slot]):.3e} of the +-pi branch cut")

    t, = slices.gate(clear, t)
    return t.apply(lambda w: 2.0 * np.arctan(w))


def odd_exp(c) -> np.ndarray:
    """Exponential of the odd anti-Hermitian generator [[0, c], [-c^H, 0]] from one SVD of c, a
    finite matrix or stack of them, each slice bit for bit its own; FWLabError naming c else."""
    if np.ndim(c) < 2:
        raise DimensionMismatch(f"c must be a matrix or a stack of them, got shape {np.shape(c)}")
    if not np.isfinite(c := np.asarray(c, dtype=complex)).all():
        raise NonHermitianInput("c has non-finite entries")
    return odd_rotation(*np.linalg.svd(c))


def odd_rotation(p, s, qh) -> np.ndarray:
    """exp [[0, c], [-c^H, 0]] for c = P diag(s) Q^H, in cosine-sine form

    [[P cos(s) P^H, P sin(s) Q^H], [-Q sin(s) P^H, Q cos(s) Q^H]], slice by slice on stacks.
    """
    q = qh.conj().swapaxes(-1, -2)
    cos, sin = np.cos(s)[..., None, :], np.sin(s)[..., None, :]
    left = np.concatenate((p * cos, q * -sin), axis=-2) @ p.conj().swapaxes(-1, -2)
    right = np.concatenate((p * sin, q * cos), axis=-2) @ qh
    return np.concatenate((left, right), axis=-1)


def even_function(p, f, qh) -> np.ndarray:
    """Hermitian diag(P diag(f) P^H, Q diag(f) Q^H), the even counterpart of ``odd_rotation``,
    slice by slice on stacks."""
    n, f = p.shape[-1], f[..., None, :]
    out = np.zeros(p.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = (p * f) @ adjoint(p)
    out[..., n:, n:] = (adjoint(qh) * f) @ qh
    return _hermitize(out)
