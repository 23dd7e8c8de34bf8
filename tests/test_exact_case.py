import numpy as np
import pytest

from fwlab import (
    DiracDecomposition,
    FWResult,
    build_free_particle,
    build_lattice_1d,
    build_synthetic_commuting,
    eriksen_transform,
    h_fw_exact,
    lambda_exact,
    make_beta,
    relative_norm,
    sign_operator,
    sqrt_hd2_exact,
    u_fw_exact,
    weak_field_sqrt,
    weak_field_transform,
)
from fwlab.exact_case import COMMUTE_TOL, ModelStack, u_fw_stack
from fwlab.errors import (NonHermitianInput, NotCommuting, NotUnitary, OutsideValidityDomain,
                          SingularOperand)
from fwlab.matfunc import Slices, Spectrum
from fwlab.models import DIRAC_ALPHA, DIRAC_BETA, Potential

from oracles import epsilon_operator, principal_sqrt


def test_commutation_report():
    _, d = build_free_particle(1.0, (0.1, 0.2, 0.3))
    residual, = ModelStack.of([d]).commutation
    assert residual <= 1e-15

    _, d_bad = build_lattice_1d(8, 4.0, 1.0, Potential("gaussian", (0.1, 1.0)))
    residual_bad, = ModelStack.of([d_bad]).commutation
    assert residual_bad > 1e-6


def test_the_commuting_gate_reads_the_residual():
    # the gate is residual <= COMMUTE_TOL: the tolerance itself passes, and the next float up
    # and a NaN leave with the verdict's message
    h, d = build_free_particle(1.0, (0.1, 0.2, 0.3))
    one = ModelStack.of([d], Spectrum.of(h)[None])
    stack = ModelStack(one.h[[0, 0, 0]], one.masses[[0, 0, 0]], one.even_part[[0, 0, 0]],
                       one.odd_part[[0, 0, 0]],
                       np.array([COMMUTE_TOL, np.nextafter(COMMUTE_TOL, 1.0), np.nan]))
    np.testing.assert_array_equal(stack[[2, 0]].commutation, [np.nan, COMMUTE_TOL])
    slices = Slices(3)
    _, u, _ = u_fw_stack(slices, stack)
    assert slices.index == [0] and len(u) == 1
    np.testing.assert_array_equal(u[0], u_fw_exact(d).transform)
    residual = np.nextafter(COMMUTE_TOL, 1.0)
    assert slices.errors == {
        1: (NotCommuting, f"scaled commutator residual {residual:.3e} exceeds 1.0e-12"),
        2: (NotCommuting, "scaled commutator residual nan exceeds 1.0e-12")}


def test_closed_forms_reject_non_commuting():
    _, d = build_lattice_1d(8, 4.0, 1.0, Potential("gaussian", (0.1, 1.0)))
    for fn in (sqrt_hd2_exact, lambda_exact, u_fw_exact, h_fw_exact):
        with pytest.raises(NotCommuting):
            fn(d)


def test_closed_forms_reject_singular_m2_plus_o2():
    # B = diag(1e6, 1): a = m^2 + sigma^2 = (1e12 + 1, 2), and min a is below
    # GAP_RTOL * max a = 100, whichever form reads the odd block
    odd = np.zeros((4, 4), dtype=complex)
    odd[:2, 2:] = np.diag([1e6, 1.0])
    odd[2:, :2] = odd[:2, 2:].conj().T
    d = DiracDecomposition(1.0, np.zeros((4, 4)), odd)
    for fn in (epsilon_operator, sqrt_hd2_exact, lambda_exact, u_fw_exact, h_fw_exact,
               weak_field_sqrt):
        with pytest.raises(SingularOperand):
            fn(d)


def test_free_particle_closed_quantities():
    h, d = build_free_particle(1.0, (0.0, 0.0, 0.75))
    eps = epsilon_operator(d)
    np.testing.assert_allclose(eps, 1.25 * np.eye(4), atol=1e-14)
    np.testing.assert_allclose(sqrt_hd2_exact(d), 1.25 * np.eye(4), atol=1e-14)
    lam = lambda_exact(d)
    np.testing.assert_allclose(
        lam, (DIRAC_BETA + 0.75 * DIRAC_ALPHA[2]) / 1.25, atol=1e-14
    )
    expected_u = (
        2.25 * np.eye(4) + 0.75 * DIRAC_BETA @ DIRAC_ALPHA[2]
    ) / np.sqrt(2.0 * 1.25 * 2.25)
    result = u_fw_exact(d)
    np.testing.assert_allclose(result.transform, expected_u, atol=1e-14)
    np.testing.assert_allclose(h_fw_exact(d), 1.25 * DIRAC_BETA, atol=1e-14)


def test_epsilon_spectrum_matches_odd_part():
    _, d = build_synthetic_commuting(6, 1.0, (0.05, 0.02), 3)
    eps = epsilon_operator(d)
    w_odd = np.linalg.eigvalsh(d.odd_part)
    w_eps = np.sort(np.sqrt(1.0 + np.sort(w_odd**2)))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(eps)), w_eps, atol=1e-12)


def test_sqrt_contract_on_commuting_models():
    for builder in (
        lambda: build_free_particle(1.0, (0.3, 0.4, 0.0)),
        lambda: build_lattice_1d(16, 8.0, 1.0, Potential("constant", (0.2,))),
        lambda: build_synthetic_commuting(8, 1.0, (0.0, 0.0, 0.01), 4),
    ):
        h, d = builder()
        root = sqrt_hd2_exact(d)
        assert relative_norm(root @ root - h @ h, h @ h) <= 1e-10
        oracle = principal_sqrt(h @ h)
        assert relative_norm(root - oracle, oracle) <= 1e-10


def test_lambda_exact_matches_sign_operator():
    h, d = build_synthetic_commuting(10, 1.0, (-0.1,), 5)
    np.testing.assert_allclose(lambda_exact(d), sign_operator(h), atol=1e-11)


def test_lambda_ignores_even_part_bitwise():
    # same odd part (same seed), different even polynomials: the closed
    # form never touches E, so the bytes agree exactly
    _, d_a = build_synthetic_commuting(6, 1.0, (0.05, 0.02), 3)
    _, d_b = build_synthetic_commuting(6, 1.0, (0.19,), 3)
    assert lambda_exact(d_a).tobytes() == lambda_exact(d_b).tobytes()


def test_transform_block_diagonalizes():
    h, d = build_synthetic_commuting(12, 1.0, (0.1, 0.03), 6)
    result = u_fw_exact(d)
    u = result.transform
    beta = make_beta(len(h))
    assert relative_norm(u @ h @ u.conj().T - h_fw_exact(d), h) <= 1e-12
    assert relative_norm(u - eriksen_transform(h).transform, u) <= 1e-11
    assert result.diagnostics.block_diagonality <= 1e-12
    eps = epsilon_operator(d)
    np.testing.assert_allclose(
        h_fw_exact(d), beta @ eps + d.even_part, atol=1e-14
    )


def test_closed_transform_outside_gap_domain():
    # strong even part pushes the closed root indefinite, yet the closed
    # transform stays unitary and still maps H to beta eps + E
    odd = 0.75 * DIRAC_ALPHA[2]
    even = -3.0 * np.eye(4)
    d = DiracDecomposition(1.0, even, odd)
    with pytest.raises(OutsideValidityDomain):
        sqrt_hd2_exact(d)
    result = u_fw_exact(d)
    u = result.transform
    h = d.hamiltonian()
    assert relative_norm(u @ h @ u.conj().T - h_fw_exact(d), h) <= 1e-12


def test_weak_field_collapses_on_commuting():
    for builder in (
        lambda: build_synthetic_commuting(8, 1.0, (0.0, 0.0, 0.01), 4),
        lambda: build_lattice_1d(16, 8.0, 1.0, Potential("constant", (0.2,))),
    ):
        _, d = builder()
        root = sqrt_hd2_exact(d)
        assert relative_norm(weak_field_sqrt(d) - root, root) <= 1e-12


def test_weak_field_reduces_to_epsilon_without_field():
    _, d = build_free_particle(1.0, (0.0, 0.0, 0.75))
    np.testing.assert_array_equal(weak_field_sqrt(d), epsilon_operator(d))


def test_weak_field_accepts_non_commuting():
    # the expansion is exactly the regime where [E, O] != 0; no gate here
    h, d = build_lattice_1d(16, 8.0, 1.0, Potential("gaussian", (0.05, 3.0)))
    root = weak_field_sqrt(d)
    exact = principal_sqrt(h @ h)
    assert relative_norm(root - exact, exact) <= 1e-3


def test_weak_field_transform_reports_its_defect():
    # off the commuting case U is only approximately unitary: the result carries the
    # defect, where the default gate of FWResult.of refuses the same U
    h, d = build_lattice_1d(16, 8.0, 1.0, Potential("gaussian", (0.1, 1.0)))
    result = weak_field_transform(h, weak_field_sqrt(d))
    assert result.diagnostics.unitarity_residual > 1e-6
    with pytest.raises(NotUnitary):
        FWResult.of(result.transform, h)


def test_weak_field_transform_refuses_a_non_finite_root():
    h, d = build_free_particle(1.0, (0.0, 0.0, 0.75))
    root = weak_field_sqrt(d)
    root[0, 0] = np.nan
    with pytest.raises(NonHermitianInput, match="^operand has non-finite entries$"):
        weak_field_transform(h, root)


def test_weak_field_transform_is_eriksen_on_commuting(commuting_suite):
    # measured 2.2e-15 at worst
    for spec, h, d in commuting_suite:
        weak = weak_field_transform(h, weak_field_sqrt(d)).transform
        exact = eriksen_transform(h).transform
        assert relative_norm(weak - exact, exact) <= 1e-12, spec.describe()
    assert len(commuting_suite) == 33
