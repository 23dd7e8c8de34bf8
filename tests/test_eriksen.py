import numpy as np
import pytest

import fwlab
from fwlab.algebra import require_hermitian
from fwlab import (
    DiagnosticSet,
    FWResult,
    Grading,
    compute_diagnostics,
    eriksen_condition_residual,
    eriksen_transform,
    eriksen_transform_alt,
    exponent_oddness,
    frobenius,
    make_beta,
    relative_norm,
    sign_operator,
)
from fwlab.eriksen import METHOD_ERIKSEN, METHOD_ERIKSEN_ALT
from fwlab.errors import (
    DegenerateFactor,
    NonHermitianInput,
    NotUnitary,
    SingularOperand,
)
from fwlab.models import DIRAC_ALPHA, DIRAC_BETA, build_free_particle


def _random_gapped(rng, grading, gap=0.3):
    """Gapped Hermitian with as many positive as negative eigenvalues.

    The transform only exists when the positive subspace matches the
    upper block in dimension, so the signature must be balanced.
    """
    dim = grading.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    w = np.concatenate([
        -(gap + rng.uniform(0.0, 2.0, grading.upper_dim)),
        gap + rng.uniform(0.0, 2.0, dim - grading.upper_dim),
    ])
    return (q * w) @ q.conj().T


def test_free_particle_closed_form():
    # for H = m beta + p alpha_3 the transform is
    # (eps + m + p beta alpha_3) / sqrt(2 eps (eps + m)) with eps = 1.25
    h, g, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    eps = 1.25
    expected = (
        (eps + 1.0) * np.eye(4) + 0.75 * DIRAC_BETA @ DIRAC_ALPHA[2]
    ) / np.sqrt(2.0 * eps * (eps + 1.0))
    result = eriksen_transform(h, g)
    np.testing.assert_allclose(result.transform, expected, atol=1e-14)
    np.testing.assert_allclose(
        result.transformed_hamiltonian, eps * DIRAC_BETA, atol=1e-13
    )
    assert result.method_tag == METHOD_ERIKSEN
    assert result.diagnostics.eriksen_condition_residual <= 1e-14
    assert result.diagnostics.block_diagonality <= 1e-14
    assert result.diagnostics.spectrum_drift <= 1e-14
    assert result.diagnostics.exponent_odd_residual <= 1e-12


def test_adjoint_condition_random_gapped():
    rng = np.random.default_rng(20)
    g = Grading(12, 6)
    for _ in range(5):
        h = _random_gapped(rng, g)
        u = eriksen_transform(h, g).transform
        assert eriksen_condition_residual(u, g) <= 1e-10


def test_two_forms_agree_random_gapped():
    rng = np.random.default_rng(21)
    g = Grading(10, 5)
    for _ in range(5):
        h = _random_gapped(rng, g)
        u_a = eriksen_transform(h, g).transform
        u_b = eriksen_transform_alt(h, g).transform
        assert relative_norm(u_a - u_b, u_a) <= 1e-10
        assert eriksen_transform_alt(h, g).method_tag == METHOD_ERIKSEN_ALT


def test_polar_factor_commutes_with_its_gram():
    # F = 1 + beta lambda commutes with F^H F; this is what makes the
    # "multiply then root" and "root then multiply" orders interchangeable
    rng = np.random.default_rng(22)
    g = Grading(16, 8)
    h = _random_gapped(rng, g)
    lam = sign_operator(h)
    f = np.eye(16) + make_beta(g) @ lam
    gram = f.conj().T @ f
    residual = frobenius(f @ gram - gram @ f) / (frobenius(f) * frobenius(gram))
    assert residual <= 1e-11


def test_exponent_is_odd_and_hermitian():
    rng = np.random.default_rng(23)
    g = Grading(8, 4)
    h = _random_gapped(rng, g)
    u = eriksen_transform(h, g).transform
    odd_res, herm_res = exponent_oddness(u, g)
    assert odd_res <= 1e-11
    assert herm_res <= 1e-11


def test_degenerate_direction_raises():
    # H = -m beta makes lambda = -beta, so 1 + beta lambda vanishes:
    # the polar route reports the degeneracy, the direct route the
    # singular denominator
    g = Grading(4, 2)
    h = -1.0 * make_beta(g)
    with pytest.raises(DegenerateFactor):
        eriksen_transform_alt(h, g)
    with pytest.raises(SingularOperand):
        eriksen_transform(h, g)


@pytest.mark.parametrize("w", [(1.0, 2.0, 3.0, -1.0), (1.0, -2.0, -3.0, -1.0)])
def test_wrong_positive_count_raises(w):
    # the positive subspace cannot rotate onto an upper block of another size
    g = Grading(4, 2)
    h = np.diag(w).astype(complex)
    with pytest.raises(SingularOperand):
        eriksen_transform(h, g)
    with pytest.raises(DegenerateFactor):
        eriksen_transform_alt(h, g)


@pytest.mark.parametrize("coupling, singular", [(1e-5, True), (1e-4, False)])
def test_rotation_angle_floor(coupling, singular):
    # one pair near H = -m beta: cos^2 theta_max ~ coupling^2 / 4 against
    # the floor GAP_RTOL * ||K||_F ~ 1.4e-10 set by the ordinary pair
    g = Grading(4, 2)
    h = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    h[0, 2] = h[2, 0] = 0.3
    h[1, 3] = h[3, 1] = coupling
    if singular:
        with pytest.raises(SingularOperand):
            eriksen_transform(h, g)
        return
    u = eriksen_transform(h, g).transform
    assert relative_norm(u - eriksen_transform_alt(h, g).transform, u) <= 1e-10


def test_identity_transform_diagnostics():
    h, g, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    diag = compute_diagnostics(np.eye(4), h, g)
    assert diag.unitarity_residual == 0.0
    assert diag.eriksen_condition_residual == 0.0
    assert diag.block_diagonality == pytest.approx(0.6, rel=1e-14)
    assert diag.spectrum_drift <= 1e-15
    assert diag.exponent_odd_residual == 0.0


@pytest.mark.parametrize("transform", [eriksen_transform, eriksen_transform_alt])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(transform, bad):
    h, g, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    h = h.copy()
    h[1, 3] = bad
    with pytest.raises(NonHermitianInput, match="^Hamiltonian has non-finite entries$"):
        transform(h, g)


def test_hamiltonian_matrix_checked_once(monkeypatch):
    h, g, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    checked = []

    def spy(a, name):
        if np.array_equal(a, h):
            checked.append(name)
        return require_hermitian(a, name)

    for module in (fwlab.eriksen, fwlab.matfunc):
        monkeypatch.setattr(module, "require_hermitian", spy)
    eriksen_transform(h, g)
    assert checked == ["Hamiltonian"]
    skew = h.copy()
    skew[0, 2] += 1e-6
    with pytest.raises(NonHermitianInput, match="^Hamiltonian is not Hermitian within 1e-12$"):
        eriksen_transform(skew, g)


def test_diagnostics_reuse_transformed_hamiltonian():
    h, g, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    for result in (eriksen_transform(h, g), eriksen_transform_alt(h, g)):
        u = result.transform
        assert result.diagnostics == compute_diagnostics(u, h, g)
        np.testing.assert_array_equal(result.transformed_hamiltonian, u @ h @ u.conj().T)


def test_diagnostics_reject_negative_entries():
    with pytest.raises(ValueError):
        DiagnosticSet(-1.0, 0.0, 0.0, None, 0.0)


def test_result_wrapper_rejects_non_unitary():
    g = Grading(4, 2)
    h, _, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    # the wrapper reads the residual its diagnostics already measured
    with pytest.raises(NotUnitary):
        FWResult(2.0 * np.eye(4), h, METHOD_ERIKSEN,
                 compute_diagnostics(2.0 * np.eye(4), h, g))
    with pytest.raises(ValueError):
        FWResult(np.eye(4), h, "nosuchmethod", compute_diagnostics(np.eye(4), h, g))
