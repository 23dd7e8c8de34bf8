import numpy as np
import pytest
import scipy.linalg

from fwlab import (
    DiracDecomposition,
    ModelSpec,
    NonHermitianInput,
    Spectrum,
    build_free_particle,
    build_lattice_1d,
    eriksen_transform,
    frobenius,
    h_fw_exact,
    make_beta,
    odd_exp,
    odd_projection,
    relative_norm,
    run_comparison,
    split_even_odd,
    stepwise_fw,
)
from fwlab.models import KIND_LATTICE, Potential
from fwlab.stepwise import (
    STOP_MAX_ITERATIONS,
    STOP_STAGNATION,
    STOP_TOLERANCE,
    ToleranceConfig,
    stepwise_lockstep,
)


def test_small_momentum_converges_fast():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    result, trace = stepwise_fw(h, 1.0)
    assert trace.converged
    assert trace.stop_reason == STOP_TOLERANCE
    assert len(trace.iterations) == 3
    ratios = [row[1] for row in trace.iterations]
    np.testing.assert_allclose(
        ratios, [9.950371902099893e-02, 3.313475027747850e-04, 1.652610187602288e-06],
        rtol=1e-6,
    )
    assert result.diagnostics.block_diagonality <= 1e-8


def test_ratio_decreases_monotonically():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    _, trace = stepwise_fw(h, 1.0)
    assert trace.converged
    ratios = [row[1] for row in trace.iterations]
    assert len(ratios) >= 3
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_agrees_with_single_shot_on_free_particle():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    single = eriksen_transform(h)
    multi, trace = stepwise_fw(h, 1.0)
    assert trace.converged
    assert trace.stop_reason == STOP_TOLERANCE
    target = single.transformed_hamiltonian
    assert relative_norm(multi.transformed_hamiltonian - target, target) <= 2e-8
    # on the free particle every step exponent is proportional to
    # beta alpha_3, so even the composite satisfies the adjoint condition
    assert multi.diagnostics.eriksen_condition_residual <= 1e-12
    assert single.diagnostics.eriksen_condition_residual <= 1e-12


def test_reaches_exact_block_form_on_commuting_lattice():
    h, d = build_lattice_1d(16, 8.0, 1.0, Potential("constant", (0.2,)))
    result, trace = stepwise_fw(h, 1.0)
    assert trace.converged
    target = h_fw_exact(d)
    assert relative_norm(result.transformed_hamiltonian - target, target) <= 1e-8
    # where [E, O] = 0 the steps compose to Eriksen's one U; on a non-commuting lattice they
    # converge as tightly and still stop far from it
    tight = ToleranceConfig(stepwise_tol=1e-15)
    for n, length, mass, potential, commuting in (
            (16, 8.0, 1.0, Potential("constant", (0.2,)), True),
            (32, 24.0, 4.0, Potential("gaussian", (0.5, 2.0)), False),
            (32, 24.0, 4.0, Potential("gaussian", (0.2, 6.0)), False)):
        h, _ = build_lattice_1d(n, length, mass, potential)
        result, trace = stepwise_fw(h, mass, tight)
        assert trace.converged
        u = eriksen_transform(h).transform
        gap = relative_norm(result.transform - u, u)
        assert gap <= 1e-12 if commuting else gap >= 1e-7


def test_composite_breaks_adjoint_condition_off_commuting():
    spec = ModelSpec(kind=KIND_LATTICE, mass=1.0, n=16, length=8.0,
                     potential=Potential("gaussian", (0.1, 1.0)))
    report = run_comparison(spec, methods=("eriksen", "stepwise"))
    single = report.row("eriksen").diagnostics.eriksen_condition_residual
    multi = report.row("stepwise").diagnostics.eriksen_condition_residual
    assert single <= 1e-10
    assert multi >= 1e2 * single


def test_stagnation_detected_on_sharp_potential():
    # dx = 0.5 puts lattice momenta up to 2m in play, where the
    # iteration cannot contract; the ratio plateaus and the run reports it
    h, _ = build_lattice_1d(32, 8.0, 1.0, Potential("gaussian", (0.1, 1.0)))
    result, trace = stepwise_fw(h, 1.0)
    assert not trace.converged
    assert trace.stop_reason == STOP_STAGNATION
    assert result.diagnostics.block_diagonality > 1e-3
    # the transform itself stays exactly unitary throughout
    assert result.diagnostics.unitarity_residual <= 1e-12
    assert result.diagnostics.spectrum_drift <= 1e-12


def test_iteration_cap():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    _, trace = stepwise_fw(h, 1.0, ToleranceConfig(max_iterations=2))
    assert not trace.converged
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert len(trace.iterations) == 2
    _, trace = stepwise_fw(h, 1.0, ToleranceConfig(max_iterations=0))
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert trace.iterations == ()


def test_block_diagonal_input_needs_no_steps():
    h = 1.0 * make_beta(4) + np.diag([0.2, 0.1, -0.1, 0.3])
    result, trace = stepwise_fw(h, 1.0)
    assert trace.converged
    assert trace.stop_reason == STOP_TOLERANCE
    assert len(trace.iterations) == 0
    np.testing.assert_array_equal(result.transform, np.eye(4))


def test_parameter_gates():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        stepwise_fw(h, -1.0)
    with pytest.raises(ValueError):
        stepwise_fw(h, 1.0, ToleranceConfig(stepwise_tol=0.0))
    # a mass taken directly is read by as_number, as a ModelSpec's is
    for mass, message in (
        (10**400, "mass must be a real number, got an int beyond float range"),
        (True, "mass must be a real number, got True"),
        (1 + 0j, "mass must be a real number, got (1+0j)"),
        (np.array([1.0]), "mass must be a real number, got array([1.])"),
        ("1", "mass must be a real number, got '1'"),
    ):
        for entry in (stepwise_fw, split_even_odd):
            with pytest.raises(ValueError) as err:
                entry(h, mass)
            assert str(err.value) == message, entry.__name__
    assert type(split_even_odd(h, np.float32(1.0)).mass) is float
    # stopping rules that cannot work; tol = inf "converged" after 0 steps on this
    # lattice, whose block diagonality is 0.58
    h, _ = build_lattice_1d(16, 8.0, 1.0, Potential("gaussian", (0.2, 1.0)))
    for tol, max_iterations, message in (
        (np.inf, 50, "tol must be positive and finite, got inf"),
        (np.nan, 50, "tol must be positive and finite, got nan"),
        (-1e-8, 50, "tol must be positive and finite, got -1e-08"),
        (1e-8, -2, "max_iterations must be nonnegative, got -2"),
        (True, 50, "tol must be positive and finite, got True"),
        (1e-8, True, "max_iterations must be an integer, got True"),
        (1e-8, 2.5, "max_iterations must be an integer, got 2.5"),
        (1e-8, np.inf, "max_iterations must be an integer, got inf"),
        ("1e-8", 50, "tol must be positive and finite, got '1e-8'"),
        (1e-8, "50", "max_iterations must be an integer, got '50'"),
        (10**400, 50, "tol must be positive and finite, got an int beyond float range"),
    ):
        with pytest.raises(ValueError) as err:
            stepwise_fw(h, 1.0, ToleranceConfig(tol, max_iterations))
        assert str(err.value) == message


def test_lockstep_needs_one_mass_per_model():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    stack = np.stack([h, h])
    with pytest.raises(ValueError, match="2 Hamiltonians need as many masses, got 1"):
        stepwise_lockstep(Spectrum(stack, *np.linalg.eigh(stack)), [1.0])


def test_rejects_infinite_mass():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    with pytest.raises(ValueError, match="positive and finite"):
        stepwise_fw(h, float("inf"))


def test_rejects_mass_at_which_the_odd_part_overflows():
    # ||O||_F / m overflows, so the first exponent O / 2m is never formed; the decomposition
    # applies the same rule to the same part, with the same message
    h, d = build_lattice_1d(8, 4.0, 1.0, Potential("gaussian", (0.2, 1.0)))
    message = "^odd part norm over mass 1e-310 overflows$"
    with pytest.raises(ValueError, match=message):
        stepwise_fw(h, 1e-310)
    with pytest.raises(ValueError, match=message):
        stepwise_lockstep(Spectrum.of(h)[None], [1e-310])
    with pytest.raises(ValueError, match=message):
        DiracDecomposition(1e-310, np.zeros_like(h), d.odd_part)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_hamiltonian(bad):
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    h = h.copy()
    h[0, 2] = bad
    with pytest.raises(NonHermitianInput, match="non-finite"):
        stepwise_fw(h, 1.0)


def test_first_step_matches_dense_expm(full_suite):
    # the block kernel against exp(beta O / 2m) of the dense odd generator
    for spec, h, _ in full_suite:
        n = len(h) // 2
        dense = scipy.linalg.expm((0.5 / spec.mass) * (make_beta(len(h)) @ odd_projection(h)))
        got = odd_exp(h[:n, n:] / (2.0 * spec.mass))
        assert frobenius(got - dense) <= 1e-13 * frobenius(dense), spec.describe()


@pytest.mark.parametrize("n, length, potential, steps, stop_reason", [
    (32, 8.0, Potential("gaussian", (0.1, 1.0)), 10, STOP_STAGNATION),
    (16, 8.0, Potential("step", (0.15, 0.0)), 21, STOP_TOLERANCE),
    (32, 16.0, Potential("linear", (0.02,)), 34, STOP_TOLERANCE),
    (64, 25.0, Potential("gaussian", (0.15, 2.0)), 37, STOP_TOLERANCE),
])
def test_step_count_pinned(n, length, potential, steps, stop_reason):
    # counts of the dense-expm iteration; a step kernel must not move them
    h, _ = build_lattice_1d(n, length, 1.0, potential)
    _, trace = stepwise_fw(h, 1.0)
    assert len(trace.iterations) == steps
    assert trace.stop_reason == stop_reason


def test_transformed_hamiltonian_matches_composite(full_suite):
    # the iteration rotates H's eigenframe; its end point must be U H U^H
    for spec, h, _ in full_suite:
        result, _ = stepwise_fw(h, spec.mass)
        u = result.transform
        expected = u @ h @ u.conj().T
        assert relative_norm(result.transformed_hamiltonian - expected, expected) <= 1e-13, \
            spec.describe()


def test_trace_records_exponent_norms():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    _, trace = stepwise_fw(h, 1.0)
    # S_1 = -(i/2m) beta O has ||S_1||_F = |p| for the 4x4 model
    assert trace.iterations[0][2] == pytest.approx(0.1, rel=1e-12)
    indices = [row[0] for row in trace.iterations]
    assert indices == list(range(len(indices)))


def test_exponent_norms_survive_a_square_that_overflows():
    # ||O||_F / 2m ~ 1e160: its square overflows, the norm itself does not
    mass = 1e-160
    h, _ = build_lattice_1d(8, 4.0, mass, Potential("gaussian", (0.2, 1.0)))
    _, trace = stepwise_fw(h, mass)
    exponents = [row[2] for row in trace.iterations]
    assert exponents and all(np.isfinite(exponents))
    n = len(h) // 2
    expected = np.sqrt(2.0) * np.linalg.norm(h[:n, n:]) / (2.0 * mass)
    assert exponents[0] == pytest.approx(expected, rel=1e-12)
