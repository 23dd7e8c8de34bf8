"""Properties of the transform routes on random graded Hamiltonians.

H = m beta + E + O with a random Hermitian even part of spectral norm
(1 - gap) m and a random odd part of spectral norm coupling * m.  The upper
block m + E_11 is then positive definite and the lower block -m + E_22
negative definite, so H has n positive and n negative eigenvalues, none in
(-gap m, gap m), and its positive eigenvectors have a regular upper block:
Eriksen's transform exists.  The metamorphic relations are independent of
how either route is computed:

- U(cH) = U(H) for c > 0 (eriksen), stepwise(cH, c m) = stepwise(H, m), and the weak-field
  root of (c m, c E, c O) is c times that of (m, E, O);
- U(W H W^H) = W U(H) W^H for even unitaries W = diag(W1, W2), both routes;
- each slice of a stacked eigh is its model's own eigh bit for bit, and stepwise on that
  stack in lockstep equals each model's own run bit for bit;
- a batch of lattices of random masses and strengths gives each its report alone, for
  any method list;
- the stacked Frobenius norm of each slice is its ``np.linalg.norm`` bit for bit;
- a model of any scale fails with a typed error or gets a report that is strict JSON;
- a model with any field, or any entry of a vector field, set to a hostile value fails with a
  typed error or gets a report whose bytes two runs repeat;
- a direct entry point with one scalar parameter set to a hostile value refuses it by name, or
  gives the bits of the call with the value read by ``as_number``;
- a direct entry point with one operand (a matrix, decomposition, list or configuration) set to
  a hostile value returns, or fails with a typed error or a ValueError.

Stepwise relations compare runs of a fixed number of steps, so that a ratio
lying on a stopping threshold cannot split two equivalent runs.

Commuting models take E as a polynomial in O^2 of spectral norm (1 - gap) m.
Since eps = sqrt(m^2 + O^2) >= m, H = beta eps + E after the closed-form
transform keeps the same signed gap, and the closed forms must reproduce
eriksen's transform and the sign operator.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwlab import (
    DimensionMismatch,
    DiracDecomposition,
    FWLabError,
    FWResult,
    ModelSpec,
    NonHermitianInput,
    NotUnitary,
    Potential,
    Spectrum,
    build_free_particle,
    build_lattice_1d,
    build_model,
    build_synthetic_commuting,
    emit_report,
    eriksen_transform,
    eriksen_transform_alt,
    exponent_oddness,
    frobenius,
    h_fw_exact,
    hermiticity_defect,
    lambda_exact,
    load_explicit_matrix,
    make_beta,
    odd_exp,
    parse_potential,
    read_matrix,
    read_potential_table,
    relative_norm,
    report_csv,
    report_json,
    run_comparison,
    sign_operator,
    split_even_odd,
    stepwise_fw,
    u_fw_exact,
    unitary_log,
    weak_field_sqrt,
    write_matrix,
    write_text,
)
from fwlab.algebra import as_number
from fwlab.exact_case import ModelStack
from fwlab.harness import (METHOD_ERIKSEN, METHOD_EXACT_CASE, METHOD_STEPWISE, METHOD_TAGS,
                           METHOD_WEAK_FIELD, run_comparisons)
from fwlab.stepwise import (STOP_MAX_ITERATIONS, STOP_STAGNATION, STOP_TOLERANCE,
                            ToleranceConfig, stepwise_lockstep)

from oracles import epsilon_operator

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 16)
MASSES = st.floats(0.5, 8.0)


def _complex_normal(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _with_norm(a, norm):
    return a * (norm / max(np.linalg.norm(a, 2), 1e-300))


def graded_hamiltonian(seed, n, mass, gap, coupling):
    """2n x 2n H with n positive eigenvalues and none in (-gap m, gap m)."""
    rng = np.random.default_rng(seed)
    even = np.zeros((2 * n, 2 * n), dtype=complex)
    for block in (slice(0, n), slice(n, 2 * n)):
        a = _complex_normal(rng, n)
        even[block, block] = a + a.conj().T
    even = _with_norm(even, (1.0 - gap) * mass)
    odd = np.zeros_like(even)
    odd[:n, n:] = _with_norm(_complex_normal(rng, n), coupling * mass)
    odd[n:, :n] = odd[:n, n:].conj().T
    return mass * make_beta(2 * n) + even + odd


def commuting_decomposition(seed, n, mass, gap, coupling, degree):
    """DiracDecomposition whose even part is a degree-``degree`` polynomial in O^2."""
    rng = np.random.default_rng(seed)
    odd = np.zeros((2 * n, 2 * n), dtype=complex)
    odd[:n, n:] = _with_norm(_complex_normal(rng, n), coupling * mass)
    odd[n:, :n] = odd[:n, n:].conj().T
    odd_sq = odd @ odd
    even = np.zeros_like(odd)
    for coefficient in rng.standard_normal(degree + 1):
        even = even @ odd_sq + coefficient * np.eye(2 * n)
    return DiracDecomposition(mass, _with_norm(even, (1.0 - gap) * mass), odd)


def even_unitary(seed, n):
    rng = np.random.default_rng(seed)
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for block in (slice(0, n), slice(n, 2 * n)):
        w[block, block] = np.linalg.qr(_complex_normal(rng, n))[0]
    return w


def _assert_block_form(result, bound):
    d = result.diagnostics
    assert d.unitarity_residual <= 1e-12
    assert d.block_diagonality <= bound
    transformed = result.transformed_hamiltonian
    n = len(transformed) // 2
    assert np.linalg.eigvalsh(transformed[:n, :n]).min() > 0.0
    assert np.linalg.eigvalsh(transformed[n:, n:]).max() < 0.0


def _steps(h, mass, steps):
    result, trace = stepwise_fw(h, mass, ToleranceConfig(1e-300, steps))
    assert len(trace.iterations) == steps
    return result.transform


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0))
def test_eriksen_invariants(seed, n, mass, gap, coupling):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    result = eriksen_transform(h)
    _assert_block_form(result, 1e-10)
    assert result.diagnostics.eriksen_condition_residual <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.7, 1.0), coupling=st.floats(0.0, 0.3))
def test_stepwise_invariants_at_weak_coupling(seed, n, mass, gap, coupling):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    result, trace = stepwise_fw(h, mass)
    assert trace.converged
    _assert_block_form(result, 1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0),
       log_scale=st.floats(-3.0, 3.0))
def test_eriksen_scale_invariance(seed, n, mass, gap, coupling, log_scale):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    u = eriksen_transform(h).transform
    scaled = eriksen_transform(10.0 ** log_scale * h).transform
    assert relative_norm(scaled - u, u) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0),
       log_scale=st.floats(-3.0, 3.0))
def test_weakfield_scale_invariance(seed, n, mass, gap, coupling, log_scale):
    d = split_even_odd(graded_hamiltonian(seed, n, mass, gap, coupling), mass)
    scale = 10.0 ** log_scale
    root = weak_field_sqrt(d)
    scaled = DiracDecomposition(scale * mass, scale * d.even_part, scale * d.odd_part)
    assert relative_norm(weak_field_sqrt(scaled) - scale * root, scale * root) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.3, 1.0), coupling=st.floats(0.01, 1.0),
       log_scale=st.floats(-3.0, 3.0), steps=st.integers(1, 3))
def test_stepwise_scale_invariance(seed, n, mass, gap, coupling, log_scale, steps):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    scale = 10.0 ** log_scale
    u = _steps(h, mass, steps)
    assert relative_norm(_steps(scale * h, scale * mass, steps) - u, u) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.01, 3.0),
       rotation_seed=SEEDS, steps=st.integers(1, 3))
def test_even_unitary_covariance(seed, n, mass, gap, coupling, rotation_seed, steps):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    w = even_unitary(rotation_seed, n)
    rotated = w @ h @ w.conj().T
    for route in (lambda x: eriksen_transform(x).transform,
                  lambda x: _steps(x, mass, steps)):
        expected = w @ route(h) @ w.conj().T
        assert relative_norm(route(rotated) - expected, expected) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0),
       degree=st.integers(0, 3))
def test_exactcase_on_commuting_models(seed, n, mass, gap, coupling, degree):
    d = commuting_decomposition(seed, n, mass, gap, coupling, degree)
    h = d.hamiltonian()
    result = u_fw_exact(d)
    u = result.transform
    assert result.diagnostics.unitarity_residual <= 1e-12
    assert result.diagnostics.eriksen_condition_residual <= 1e-12
    assert relative_norm(u @ h @ u.conj().T - h_fw_exact(d), h) <= 1e-12
    assert relative_norm(u - eriksen_transform(h).transform, u) <= 1e-10
    lam = sign_operator(h)
    assert relative_norm(lambda_exact(d) - lam, lam) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0))
def test_epsilon_matches_dense_root(seed, n, mass, gap, coupling):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    d = split_even_odd(h, mass)
    w, v = np.linalg.eigh(mass**2 * np.eye(2 * n) + d.odd_part @ d.odd_part)
    oracle = (v * np.sqrt(w)) @ v.conj().T
    assert relative_norm(epsilon_operator(d) - oracle, oracle) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=SIZES, mass=MASSES, gap=st.floats(0.05, 1.0), coupling=st.floats(0.0, 3.0))
def test_eriksenalt_agrees_with_eriksen(seed, n, mass, gap, coupling):
    h = graded_hamiltonian(seed, n, mass, gap, coupling)
    u = eriksen_transform(h).transform
    assert relative_norm(eriksen_transform_alt(h).transform - u, u) <= 1e-10


# (gap range, coupling range) per kind of stepwise run at a cap of 4-12 steps: an odd part
# of zero stops at step zero, weak coupling reaches the tolerance, moderate coupling mostly
# the cap and strong coupling mostly stagnates.
STEPWISE_KINDS = {
    "zero": ((0.05, 1.0), (0.0, 0.0)),
    "weak": ((0.7, 1.0), (0.01, 0.3)),
    "moderate": ((0.3, 1.0), (0.5, 1.0)),
    "strong": ((0.05, 1.0), (1.5, 3.0)),
}


@st.composite
def stepwise_stacks(draw):
    """(models, tolerances): 2-6 (H, mass) of one dimension, of mixed kinds."""
    n = draw(st.integers(1, 8))
    models = []
    for kind in draw(st.lists(st.sampled_from(sorted(STEPWISE_KINDS)), min_size=2, max_size=6)):
        (gap_lo, gap_hi), (lo, hi) = STEPWISE_KINDS[kind]
        mass = draw(MASSES)
        h = graded_hamiltonian(draw(SEEDS), n, mass, draw(st.floats(gap_lo, gap_hi)),
                               draw(st.floats(lo, hi)))
        models.append((h, mass))
    return models, ToleranceConfig(1e-8, draw(st.integers(4, 12)))


def _lockstep_matches_alone(models, tolerances):
    """Assert each model's lockstep result is its stepwise_fw result bit for bit, on a stack
    whose slices are each model's own Spectrum bit for bit; its traces."""
    stack = np.stack([h for h, _ in models])
    spectrum = Spectrum(stack, *np.linalg.eigh(stack))
    for i, (h, _) in enumerate(models):
        w, v = np.linalg.eigh(h)
        np.testing.assert_array_equal(spectrum.w[i], w)
        np.testing.assert_array_equal(spectrum.v[i], v)
    u, transformed, traces = stepwise_lockstep(spectrum, [m for _, m in models],
                                               tolerances)
    assert len(u) == len(transformed) == len(traces) == len(models)
    for i, (h, mass) in enumerate(models):
        result, trace = FWResult.of(u[i], h, transformed[i]), traces[i]
        alone, alone_trace = stepwise_fw(h, mass, tolerances)
        np.testing.assert_array_equal(result.transform, alone.transform)
        np.testing.assert_array_equal(result.transformed_hamiltonian,
                                      alone.transformed_hamiltonian)
        assert result.diagnostics == alone.diagnostics
        assert trace.iterations == alone_trace.iterations
        assert trace.stop_reason == alone_trace.stop_reason
    return traces


@settings(max_examples=40, deadline=None)
@given(stack=stepwise_stacks())
def test_lockstep_equals_each_run_alone(stack):
    _lockstep_matches_alone(*stack)


def test_lockstep_stack_mixes_every_stop():
    # (gap, coupling) of a zero-step, a tolerance, a cap, a stagnation and a tolerance run
    params = ((0.5, 0.0), (0.9, 0.1), (0.5, 0.7), (0.1, 2.5), (0.9, 0.2))
    models = [(graded_hamiltonian(seed, 4, 1.0 + seed, gap, coupling), 1.0 + seed)
              for seed, (gap, coupling) in enumerate(params)]
    traces = _lockstep_matches_alone(models, ToleranceConfig(1e-8, 8))
    assert [(len(t.iterations), t.stop_reason) for t in traces] == [
        (0, STOP_TOLERANCE), (6, STOP_TOLERANCE), (8, STOP_MAX_ITERATIONS),
        (4, STOP_STAGNATION), (7, STOP_TOLERANCE)]


# Method lists of a batch: the lockstep alone (beside the closed forms' task, which then runs no
# method and only builds the contexts), one-shot routes only, every route, and any subset.
METHOD_LISTS = st.one_of(
    st.sampled_from([(METHOD_STEPWISE,), (METHOD_ERIKSEN, METHOD_EXACT_CASE, METHOD_WEAK_FIELD),
                     METHOD_TAGS]),
    st.lists(st.sampled_from(METHOD_TAGS), min_size=1, max_size=5, unique=True))


@settings(max_examples=30, deadline=None)
@given(length=st.floats(4.0, 12.0), width=st.floats(0.5, 3.0),
       members=st.lists(st.tuples(MASSES, st.floats(-0.5, 3.0)), min_size=2, max_size=6),
       methods=METHOD_LISTS)
def test_batch_reports_equal_reports_alone(length, width, members, methods):
    # strong wells fail eriksen, eriksenalt or weakfield for some members and not others
    specs = [ModelSpec(kind="lattice", mass=mass, n=8, length=length,
                       potential=Potential("gaussian", (strength, width)))
             for mass, strength in members]
    texts = [(report_json(r), report_csv(r)) for r in run_comparisons(specs, methods)]
    assert texts == [(report_json(r), report_csv(r))
                     for r in (run_comparison(spec, methods) for spec in specs)]


# Memory layouts of a stack's slices: C-contiguous, transposed, and a strided block of each.
LAYOUTS = {
    "c": lambda a: a,
    "transposed": lambda a: a.swapaxes(1, 2),
    "block": lambda a: a[:, 1:, ::2],
}


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, count=st.integers(1, 20), dim=st.integers(2, 33),
       log_scale=st.floats(-8.0, 3.0), complex_entries=st.booleans(),
       layout=st.sampled_from(sorted(LAYOUTS)))
def test_stacked_frobenius_is_each_slice_norm(seed, count, dim, log_scale, complex_entries,
                                              layout):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, dim, dim))
    if complex_entries:
        a = a + 1j * rng.standard_normal((count, dim, dim))
    a = LAYOUTS[layout](a * 10.0 ** log_scale)
    b = np.ascontiguousarray(a[::-1])
    assert frobenius(a).tolist() == [np.linalg.norm(x, "fro") for x in a]
    assert relative_norm(a, b).tolist() == [relative_norm(x, y) for x, y in zip(a, b)]
    assert type(frobenius(a[0])) is float and type(relative_norm(a[0], b[0])) is float


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON (RFC 8259)")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["synthetic", "lattice", "free"]),
       log_scale=st.floats(-300.0, 300.0), log_mass=st.floats(-300.0, 300.0))
def test_every_scale_fails_typed_or_writes_strict_json(kind, log_scale, log_mass):
    # the synthetic poly, the lattice g or the momentum, and the mass, each from 10^[-300, 300]
    scale, mass = 10.0 ** log_scale, 10.0 ** log_mass
    spec = {
        "synthetic": ModelSpec(kind="synthetic", mass=mass, n=4, poly=(scale, scale), seed=1),
        "lattice": ModelSpec(kind="lattice", mass=mass, n=8, length=4.0,
                             potential=Potential("gaussian", (scale, 1.0))),
        "free": ModelSpec(kind="free", mass=mass, momentum=(0.6 * scale, 0.0, 0.8 * scale)),
    }[kind]
    try:
        report = run_comparison(spec)
    except (FWLabError, ValueError):
        return
    json.loads(report_json(report), parse_constant=_reject_constant)


# Values no model field expects: none, bools, text, non-finite, huge and big-integer reals, an
# int beyond float range, numpy scalars and arrays, containers and a bare object.
HOSTILE = [None, True, False, np.True_, "0.5", "", float("nan"), float("inf"), -float("inf"),
           1e308, 2**70, 10**400, np.float64(0.5), np.int64(3), np.array(0.5),
           np.array([0.5, 1.0]), np.zeros((2, 2)), {}, {"a": 1.0}, object(), [], (0.5,)]

# Valid fields of each model kind, and of the lattice's potentials
HOSTILE_BASES = {
    "free": dict(kind="free", mass=1.0, momentum=(0.3, 0.0, 0.4)),
    "lattice": dict(kind="lattice", mass=1.0, n=8, length=4.0),
    "synthetic": dict(kind="synthetic", mass=1.0, n=4, poly=(0.1, 0.02), seed=1),
    "matrix": dict(kind="matrix", mass=1.0,
                   path=Path(__file__).with_name("data") / "free_particle.txt"),
}
HOSTILE_POTENTIALS = (dict(kind="gaussian", params=(0.1, 1.0)),
                      dict(kind="tabulated", table=(0.1,) * 8, source="v.txt"))


@st.composite
def hostile_models(draw):
    """(kind, {ModelSpec, Potential, ToleranceConfig: fields}) of a valid model with one field,
    or the first entry of a vector field, made hostile; a Potential's only on a lattice."""
    kind = draw(st.sampled_from(sorted(HOSTILE_BASES)))
    fields = {ModelSpec: dict(HOSTILE_BASES[kind]), ToleranceConfig: {},
              Potential: dict(draw(st.sampled_from(HOSTILE_POTENTIALS)))}
    owner = draw(st.sampled_from([ModelSpec, ToleranceConfig]
                                 + [Potential] * (kind == "lattice")))
    name = draw(st.sampled_from([f.name for f in dataclasses.fields(owner)]))
    value, current = draw(st.sampled_from(HOSTILE)), fields[owner].get(name)
    if isinstance(current, tuple) and draw(st.booleans()):
        value = (value,) + current[1:]
    fields[owner][name] = value
    return kind, fields


def _hostile_run(kind, fields):
    potential = Potential(**fields[Potential]) if kind == "lattice" else None
    spec = ModelSpec(**{"potential": potential, **fields[ModelSpec]})
    return run_comparison(spec, METHOD_TAGS, ToleranceConfig(**fields[ToleranceConfig]))


@settings(max_examples=300, deadline=None)
@given(model=hostile_models())
def test_hostile_fields_fail_typed_or_repeat_their_bytes(model):
    # no raw TypeError or AttributeError, and nothing read from OS entropy
    try:
        reports = [_hostile_run(*model) for _ in range(2)]
    except (FWLabError, ValueError):
        return
    except FileNotFoundError as exc:  # a hostile str path names no file; the base's Path does
        assert isinstance(exc.filename, str)
        return
    first, second = ((report_json(r), report_csv(r)) for r in reports)
    assert first == second
    json.loads(first[0], parse_constant=_reject_constant)


_H, _D = build_free_particle(1.0, (0.3, 0.0, 0.4))
# Each scalar parameter of the entry points that take numbers directly: (function, a valid
# call's arguments, the parameter, whether it is an integer).
DIRECT_SCALARS = [
    (split_even_odd, dict(h=_H, mass=1.0), "mass", False),
    (DiracDecomposition, dict(mass=1.0, even_part=_D.even_part, odd_part=_D.odd_part), "mass",
     False),
    (stepwise_fw, dict(h=_H, mass=1.0), "mass", False),
    (build_free_particle, dict(mass=1.0, momentum=(0.3, 0.0, 0.4)), "mass", False),
    *((build_lattice_1d, dict(n=8, length=4.0, mass=1.0, potential=Potential("zero")), name,
       name == "n") for name in ("n", "length", "mass")),
    *((build_synthetic_commuting, dict(n=4, mass=1.0, poly=(0.1, 0.02), seed=1), name,
       name != "mass") for name in ("n", "mass", "seed")),
]

_SPEC = ModelSpec(kind="free", mass=1.0, momentum=(0.3, 0.0, 0.4))
_HUGE_U = np.kron([[0.0, 1e155], [1e155, 0.0]], np.ones((2, 2))).astype(complex)
# Each operand parameter of the entry points that take matrices, decompositions, lists or
# configurations: (function, a valid call's arguments, the parameter).
DIRECT_OPERANDS = [
    *((run_comparisons, dict(specs=[_SPEC], methods=METHOD_TAGS, tolerances=ToleranceConfig()),
       name) for name in ("specs", "methods", "tolerances")),
    *((stepwise_fw, dict(h=_H, mass=1.0, tolerances=ToleranceConfig()), name)
      for name in ("h", "tolerances")),
    (eriksen_transform, dict(h=_H), "h"),
    (split_even_odd, dict(h=_H, mass=1.0), "h"),
    *((call, dict(d=_D), "d") for call in (u_fw_exact, weak_field_sqrt,
                                           lambda d: ModelStack.of([d]).commutation[0])),
    (exponent_oddness, dict(u=np.eye(4, dtype=complex)), "u"),
    (FWResult.of, dict(u=np.eye(4, dtype=complex), h=_H), "u"),
    (unitary_log, dict(u=np.eye(4, dtype=complex)), "u"),
    (odd_exp, dict(c=np.zeros((2, 2))), "c"),
    (build_lattice_1d, dict(n=8, length=4.0, mass=1.0, potential=Potential("zero")), "potential"),
    (parse_potential, dict(text="gaussian:0.1,1"), "text"),
]


def _bits(x):
    """``x`` as nested tuples of type names and bytes, equal only for bit-identical results."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, _bits(tuple(vars(x).values()))
    if isinstance(x, tuple):
        return tuple(_bits(value) for value in x)
    return type(x).__name__, repr(x)


def _outcome(call, arguments):
    try:
        return _bits(call(**arguments))
    except (FWLabError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(DIRECT_SCALARS), value=st.sampled_from(HOSTILE))
@example(case=DIRECT_SCALARS[2], value=1e308)  # stepwise_fw's 2m overflowed with a RuntimeWarning
def test_hostile_scalars_fail_by_name_or_read_as_numbers(case, value):
    # a raw TypeError, OverflowError or UFuncTypeError once, or a bool run as 1
    call, arguments, name, integer = case
    try:
        number = as_number(value, name, integer)
    except ValueError:
        with pytest.raises((FWLabError, ValueError), match=f"^{name} "):
            call(**{**arguments, name: value})
        return
    assert _outcome(call, {**arguments, name: value}) == _outcome(call, {**arguments, name: number})


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(DIRECT_OPERANDS), value=st.sampled_from(HOSTILE))
def test_hostile_operands_fail_typed(case, value):
    # a raw TypeError or AttributeError once: a grading with no operand, a closed form given H
    # for its decomposition, a method list read letter by letter, a dict taken for a U
    call, arguments, name = case
    try:
        call(**{**arguments, name: value})
    except (FWLabError, ValueError):
        pass


@pytest.mark.parametrize("call, error, message", [
    (lambda: eriksen_transform(None), DimensionMismatch,
     "Hamiltonian must be 2n x 2n, n >= 1, got None"),
    (lambda: stepwise_fw(None, 1.0), DimensionMismatch,
     "Hamiltonian must be 2n x 2n, n >= 1, got None"),
    (lambda: split_even_odd(None, 1.0), DimensionMismatch,
     "Hamiltonian must be 2n x 2n, n >= 1, got None"),
    (lambda: exponent_oddness(None), DimensionMismatch, "U must be 2n x 2n, n >= 1, got None"),
    (lambda: u_fw_exact(_H), ValueError, "decomposition must be a DiracDecomposition, got ndarray"),
    (lambda: weak_field_sqrt(_H), ValueError,
     "decomposition must be a DiracDecomposition, got ndarray"),
    (lambda: ModelStack.of([None]), ValueError,
     "decomposition must be a DiracDecomposition, got NoneType"),
    (lambda: run_comparisons(None), ValueError, "specs must be a list or tuple, got NoneType"),
    (lambda: run_comparisons("ab"), ValueError, "specs must be a list or tuple, got str"),
    (lambda: run_comparisons({_SPEC: 1}), ValueError, "specs must be a list or tuple, got dict"),
    (lambda: run_comparisons([_SPEC, None]), ValueError,
     "specs[1] must be a ModelSpec, got NoneType"),
    (lambda: run_comparisons([_SPEC], None), ValueError,
     "methods must be a list or tuple, got NoneType"),
    (lambda: run_comparisons([_SPEC], "eriksen"), ValueError,
     "methods must be a list or tuple, got str"),
    (lambda: run_comparisons([_SPEC], tolerances=None), ValueError,
     "tolerances must be a ToleranceConfig, got NoneType"),
    (lambda: run_comparisons([_SPEC], tolerances={}), ValueError,
     "tolerances must be a ToleranceConfig, got dict"),
    (lambda: stepwise_fw(_H, 1.0, None), ValueError,
     "tolerances must be a ToleranceConfig, got NoneType"),
    (lambda: FWResult.of(None, _H), DimensionMismatch, "U must be 2n x 2n, n >= 1, got None"),
    (lambda: FWResult.of(np.ones((2, 3)), _H), DimensionMismatch,
     "U must be 2n x 2n, n >= 1, got shape (2, 3)"),
    (lambda: unitary_log(None), DimensionMismatch, "U must be a square matrix, got None"),
    (lambda: unitary_log(np.ones((2, 3))), DimensionMismatch,
     "U must be a square matrix, got shape (2, 3)"),
    (lambda: build_model(None), ValueError, "spec must be a ModelSpec, got NoneType"),
    (lambda: report_json(None), ValueError, "report must be a ComparisonReport, got NoneType"),
    (lambda: report_json(run_comparison(_SPEC, ["eriksen"]), include_timings="no"), ValueError,
     "include_timings must be a bool, got str"),
    (lambda: run_comparison(None), ValueError, "spec must be a ModelSpec, got NoneType"),
    (lambda: report_csv(None), ValueError, "report must be a ComparisonReport, got NoneType"),
    (lambda: emit_report(None, "csv"), ValueError,
     "report must be a ComparisonReport, got NoneType"),
    (lambda: build_lattice_1d(8, 4.0, 1.0, None), ValueError,
     "potential must be a Potential, got NoneType"),
    (lambda: build_lattice_1d(8, 4.0, 1.0, "zero"), ValueError,
     "potential must be a Potential, got str"),
    (lambda: parse_potential(None), ValueError, "potential must be a str, got NoneType"),
    (lambda: parse_potential(3), ValueError, "potential must be a str, got int"),
    (lambda: odd_exp(np.full((2, 2), np.nan)), NonHermitianInput, "c has non-finite entries"),
    (lambda: odd_exp(np.full((2, 2), np.inf)), NonHermitianInput, "c has non-finite entries"),
    (lambda: odd_exp(np.ones(3)), DimensionMismatch,
     "c must be a matrix or a stack of them, got shape (3,)"),
    (lambda: odd_exp("ab"), DimensionMismatch,
     "c must be a matrix or a stack of them, got shape ()"),
    # open() read an int path as a file descriptor and closed it: True stdout, 2 stderr
    (lambda: read_matrix(2), ValueError, "path must be a str or os.PathLike, got int"),
    (lambda: read_matrix(True), ValueError, "path must be a str or os.PathLike, got bool"),
    (lambda: read_potential_table(2), ValueError, "path must be a str or os.PathLike, got int"),
    (lambda: load_explicit_matrix(2), ValueError, "path must be a str or os.PathLike, got int"),
    (lambda: write_text(None, "x"), ValueError,
     "path must be a str or os.PathLike, got NoneType"),
    (lambda: write_matrix(123, _H), ValueError, "path must be a str or os.PathLike, got int"),
    (lambda: emit_report(run_comparison(_SPEC, ["eriksen"]), "json", 123), ValueError,
     "path must be a str or os.PathLike, got int"),
    (lambda: frobenius(None), DimensionMismatch,
     "a must be a matrix or a stack of them, got shape ()"),
    (lambda: frobenius(np.ones(3)), DimensionMismatch,
     "a must be a matrix or a stack of them, got shape (3,)"),
    (lambda: relative_norm(None, None), DimensionMismatch,
     "a must be a matrix or a stack of them, got shape ()"),
    (lambda: hermiticity_defect(None), DimensionMismatch,
     "a must be a matrix or a stack of them, got shape ()"),
    # finite entries whose squares overflow: an overflowing matmul, then a raw ValueError or nan
    (lambda: FWResult.of(_HUGE_U, _H, _H, unitary=False), NotUnitary,
     "U has a Frobenius norm that overflows"),
    (lambda: FWResult.of(np.eye(4), _H, _HUGE_U), NonHermitianInput,
     "U H U^H has a Frobenius norm that overflows"),
    (lambda: unitary_log(_HUGE_U), NotUnitary, "U has a Frobenius norm that overflows"),
    # a U of finite norm whose U H U^H overflows: the matmul warned, once
    (lambda: FWResult.of(1e-5 * _HUGE_U, 1e10 * _H), NonHermitianInput,
     "U H U^H has non-finite entries"),
    # the square and finite rules, each of one owner, on a Hamiltonian and a bare operand
    (lambda: eriksen_transform(1e155 * _H), NonHermitianInput,
     "Hamiltonian has a Frobenius norm that overflows"),
    (lambda: Spectrum.of(np.ones((2, 3))), DimensionMismatch,
     "operand must be a square matrix, got shape (2, 3)"),
    (lambda: sign_operator(np.full((4, 4), np.nan)), NonHermitianInput,
     "operand has non-finite entries"),
], ids=["eriksen-h", "stepwise-h", "split-h", "oddness-u", "u_fw_exact-d", "weak_root-d",
        "commutation-d", "specs-none", "specs-str", "specs-dict", "specs-entry", "methods-none",
        "methods-str", "tolerances-none", "tolerances-dict", "stepwise-tolerances", "result-u-none",
        "result-u-shape", "log-u-none", "log-u-shape", "build-spec", "json-report", "json-timings",
        "comparison-spec", "csv-report", "emit-csv-report", "lattice-potential-none",
        "lattice-potential-str", "parse-potential-none", "parse-potential-int", "odd-exp-nan",
        "odd-exp-inf", "odd-exp-vector", "odd-exp-str", "read-matrix-fd", "read-matrix-bool",
        "read-table-fd", "load-matrix-fd", "write-text-none", "write-matrix-int", "emit-json-int",
        "frobenius-none", "frobenius-vector", "relative-norm-none", "hermiticity-none",
        "result-u-overflow", "result-transformed-overflow", "log-u-overflow",
        "result-product-overflow", "eriksen-h-overflow", "spectrum-shape", "sign-nan"])
def test_operands_are_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
