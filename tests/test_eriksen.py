import re

import numpy as np
import pytest

import fwlab
from fwlab.algebra import require_hermitian
from fwlab import (
    DiagnosticSet,
    DiracDecomposition,
    FWResult,
    ModelSpec,
    Potential,
    build_lattice_1d,
    build_model,
    eriksen_condition_residual,
    eriksen_transform,
    eriksen_transform_alt,
    exponent_oddness,
    frobenius,
    make_beta,
    relative_norm,
    run_comparison,
    sign_operator,
    Spectrum,
    weak_field_sqrt,
    weak_field_transform,
)
from fwlab.errors import (
    DegenerateFactor,
    DimensionMismatch,
    NonHermitianInput,
    NotUnitary,
    SingularOperand,
)
from fwlab.eriksen import diagnose
from fwlab.harness import METHOD_ERIKSEN, METHOD_ERIKSEN_ALT
from fwlab.matfunc import Slices
from fwlab.models import DIRAC_ALPHA, DIRAC_BETA, KIND_LATTICE, build_free_particle
from oracles import mp_sign_transform


def _random_gapped(rng, dim, gap=0.3):
    """Gapped Hermitian with as many positive as negative eigenvalues.

    The transform only exists when the positive subspace matches the
    upper block in dimension, so the signature must be balanced.
    """
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    w = np.concatenate([
        -(gap + rng.uniform(0.0, 2.0, dim // 2)),
        gap + rng.uniform(0.0, 2.0, dim - dim // 2),
    ])
    return (q * w) @ q.conj().T


def test_free_particle_closed_form():
    # for H = m beta + p alpha_3 the transform is
    # (eps + m + p beta alpha_3) / sqrt(2 eps (eps + m)) with eps = 1.25
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    eps = 1.25
    expected = (
        (eps + 1.0) * np.eye(4) + 0.75 * DIRAC_BETA @ DIRAC_ALPHA[2]
    ) / np.sqrt(2.0 * eps * (eps + 1.0))
    result = eriksen_transform(h)
    np.testing.assert_allclose(result.transform, expected, atol=1e-14)
    np.testing.assert_allclose(
        result.transformed_hamiltonian, eps * DIRAC_BETA, atol=1e-13
    )
    assert result.diagnostics.eriksen_condition_residual <= 1e-14
    assert result.diagnostics.block_diagonality <= 1e-14
    assert result.diagnostics.spectrum_drift <= 1e-14
    assert result.diagnostics.exponent_odd_residual <= 1e-12


def test_adjoint_condition_random_gapped():
    rng = np.random.default_rng(20)
    for _ in range(5):
        h = _random_gapped(rng, 12)
        u = eriksen_transform(h).transform
        assert eriksen_condition_residual(u) <= 1e-10


def test_two_forms_agree_random_gapped():
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = _random_gapped(rng, 10)
        u_a = eriksen_transform(h).transform
        u_b = eriksen_transform_alt(h).transform
        assert relative_norm(u_a - u_b, u_a) <= 1e-10


def test_polar_factor_commutes_with_its_gram():
    # F = 1 + beta lambda commutes with F^H F; this is what makes the
    # "multiply then root" and "root then multiply" orders interchangeable
    rng = np.random.default_rng(22)
    h = _random_gapped(rng, 16)
    lam = sign_operator(h)
    f = np.eye(16) + make_beta(16) @ lam
    gram = f.conj().T @ f
    residual = frobenius(f @ gram - gram @ f) / (frobenius(f) * frobenius(gram))
    assert residual <= 1e-11


def test_exponent_is_odd_and_hermitian():
    rng = np.random.default_rng(23)
    h = _random_gapped(rng, 8)
    u = eriksen_transform(h).transform
    assert exponent_oddness(u) <= 1e-11
    # S is Hermitian bit for bit, as unitary_log hermitizes it (test_unitary_log_hermitian_output)


def test_degenerate_direction_raises():
    # H = -m beta makes lambda = -beta, so 1 + beta lambda vanishes:
    # the polar route reports the degeneracy, the direct route the
    # singular denominator
    h = -1.0 * make_beta(4)
    with pytest.raises(DegenerateFactor):
        eriksen_transform_alt(h)
    with pytest.raises(SingularOperand):
        eriksen_transform(h)


@pytest.mark.parametrize("w", [(1.0, 2.0, 3.0, -1.0), (1.0, -2.0, -3.0, -1.0)])
def test_wrong_positive_count_raises(w):
    # the positive subspace cannot rotate onto an upper block of another size
    h = np.diag(w).astype(complex)
    with pytest.raises(SingularOperand):
        eriksen_transform(h)
    with pytest.raises(DegenerateFactor):
        eriksen_transform_alt(h)


@pytest.mark.parametrize("coupling, singular",
                         [(1e-8, True), (1e-5, True), (2.02e-5, False), (1e-4, False)])
def test_rotation_angle_floor(coupling, singular):
    # one pair near H = -m beta: cos^2 theta ~ coupling^2 / 4 against the floor
    # GAP_RTOL * 1 = 1e-10 at cos^2 theta's natural scale; both routes
    # test the same values, eriksenalt as (sigma / 2)^2 of 1 + beta lambda
    h = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    h[0, 2] = h[2, 0] = 0.3
    h[1, 3] = h[3, 1] = coupling
    if singular:
        with pytest.raises(SingularOperand):
            eriksen_transform(h)
        with pytest.raises(DegenerateFactor):
            eriksen_transform_alt(h)
        return
    u = eriksen_transform(h).transform
    assert relative_norm(u - eriksen_transform_alt(h).transform, u) <= 1e-10


def _angles_near_half_pi(b, seed=0):
    # H = [[-2 + A, bC], [bC^H, 0.5 - A]], ||A||_2 = 0.05, ||C||_2 = 1: the positive states lie
    # in the lower block, so every angle nears pi/2 and cos theta ~ 0.1 b, while the gap holds
    n, rng = 4, np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a += a.conj().T
    a *= 0.05 / np.linalg.norm(a, 2)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c /= np.linalg.norm(c, 2)
    eye = np.eye(n)
    return np.block([[-2.0 * eye + a, b * c], [b * c.conj().T, 0.5 * eye - a]])


def test_cos2_gate_fires_when_every_angle_nears_half_pi():
    # cos^2 theta, K's eigenvalues in (0, 1], is gated at scale 1: a floor of GAP_RTOL times
    # its largest value would let every angle near pi/2 together, and eriksenalt's U would be
    # off by ~eps / min cos theta (block diagonality 2.5e-8 here at b = 1e-7)
    message = "smallest {} 9.526e-17 is below the gap tolerance 1.000e-10"
    h = _angles_near_half_pi(1e-7)
    with pytest.raises(SingularOperand, match=re.escape(message.format("cos^2 theta"))):
        eriksen_transform(h)
    with pytest.raises(DegenerateFactor, match=re.escape(
            message.format("(sigma / 2)^2 of 1 + beta*lambda"))):
        eriksen_transform_alt(h)
    # at b = 1e-3, min cos^2 theta ~ 1e-8, both routes run and agree
    h = _angles_near_half_pi(1e-3)
    u = eriksen_transform(h).transform
    assert relative_norm(u - eriksen_transform_alt(h).transform, u) <= 1e-10


def test_step_crossing_near_gap():
    # a level of this step lattice crosses zero at g* = 1.0576311600; at g* - 3e-8 the
    # relative gap min |w| / max |w| is 9e-9, and both routes stay at rounding level
    spec = ModelSpec(kind=KIND_LATTICE, mass=1.0, n=32, length=8.0,
                     potential=Potential("step", (1.0576311600 - 3e-8, 0.0)))
    w = np.abs(np.linalg.eigvalsh(build_model(spec)[0]))
    assert 1e-9 < w.min() / w.max() < 1e-7
    report = run_comparison(spec, methods=(METHOD_ERIKSEN, METHOD_ERIKSEN_ALT))
    for row in report.methods:
        assert row.error is None, row.error
        for name, value in row.diagnostics.to_dict().items():
            assert value <= 1e-10, (row.method, name)
    assert report.cross[0].transform_disagreement <= 1e-12


def test_identity_transform_diagnostics():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    diag = FWResult.of(np.eye(4), h, h, unitary=False).diagnostics
    assert diag.unitarity_residual == 0.0
    assert diag.eriksen_condition_residual == 0.0
    assert diag.block_diagonality == pytest.approx(0.6, rel=1e-14)
    assert diag.spectrum_drift <= 1e-15
    assert diag.exponent_odd_residual == 0.0


@pytest.mark.parametrize("transform", [eriksen_transform, eriksen_transform_alt])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(transform, bad):
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    h = h.copy()
    h[1, 3] = bad
    with pytest.raises(NonHermitianInput, match="^Hamiltonian has non-finite entries$"):
        transform(h)


def test_hamiltonian_matrix_checked_once(monkeypatch):
    h, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    checked = []

    def spy(a, name):
        if np.array_equal(a, h):
            checked.append(name)
        return require_hermitian(a, name)

    # _alone checks a matrix H through Spectrum.of, naming it
    monkeypatch.setattr(fwlab.matfunc, "require_hermitian", spy)
    eriksen_transform(h)
    assert checked == ["Hamiltonian"]
    skew = h.copy()
    skew[0, 2] += 1e-6
    with pytest.raises(NonHermitianInput, match="^Hamiltonian is not Hermitian within 1e-12$"):
        eriksen_transform(skew)


def test_diagnostics_reuse_transformed_hamiltonian():
    h, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    for result in (eriksen_transform(h), eriksen_transform_alt(h)):
        u = result.transform
        again = FWResult.of(u, h, u @ h @ u.conj().T, unitary=False)
        assert result.diagnostics == again.diagnostics
        np.testing.assert_array_equal(result.transformed_hamiltonian, u @ h @ u.conj().T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_single_model_diagnostics_reject_non_finite_operands(bad):
    # a typed error naming the operand, not LAPACK's "Eigenvalues did not converge"
    h, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    result = eriksen_transform(h)
    u, transformed = result.transform.copy(), result.transformed_hamiltonian.copy()
    u[0, 1], transformed[1, 1] = bad, bad
    with pytest.raises(NotUnitary, match="^U has non-finite entries$"):
        FWResult.of(u, h)
    with pytest.raises(NonHermitianInput, match="^U H U\\^H has non-finite entries$"):
        FWResult.of(result.transform, h, transformed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_diagnostics_refuse_a_non_finite_slice_by_name(bad):
    # once numpy's RuntimeWarnings and DiagnosticSet's ValueError for a bad U, and LAPACK's
    # "Eigenvalues did not converge" for a bad U H U^H; diagnose drops only the bad slice
    h, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    result = eriksen_transform(h)
    spectra = Spectrum.of(h)[None][[0, 0]]
    u, transformed = (np.stack([x, x]) for x in (result.transform, result.transformed_hamiltonian))
    for operand, error, name in ((u, NotUnitary, "U"), (transformed, NonHermitianInput, "U H U^H")):
        good = operand[1].copy()
        operand[1, 0, 1] = bad
        slices = Slices(2)
        [kept] = diagnose(slices, spectra, u, transformed)
        assert slices.index == [0]
        assert slices.errors == {1: (error, f"{name} has non-finite entries")}
        assert kept.diagnostics == result.diagnostics
        np.testing.assert_array_equal(kept.transform, result.transform)
        operand[1] = good


@pytest.mark.parametrize("n", [8, 16, 32])
def test_stacked_diagnostics_are_those_of_each_transform_alone(n):
    # diagnose on a stack that mixes routes and non-unitary weak-field slices gives each slice
    # the bits FWResult.of gives its transform alone, so FWResult.of needs no stacked twin
    hs, us = [], []
    for g, width in ((0.1, 1.0), (0.3, 0.5), (0.5, 2.0), (0.8, 1.5)):
        h, d = build_lattice_1d(n, n / 4, 1.0, Potential("gaussian", (g, width)))
        for result in (eriksen_transform(h), eriksen_transform_alt(h),
                       weak_field_transform(h, weak_field_sqrt(d))):
            hs.append(h)
            us.append(result.transform)
    spectra = Spectrum(*(np.stack(x) for x in zip(*(
        (s.matrix, s.w, s.v) for s in map(Spectrum.of, hs)))))
    u = np.stack(us)
    transformed = u @ np.stack(hs) @ u.conj().transpose(0, 2, 1)
    slices = Slices(len(us))
    stacked = diagnose(slices, spectra, u, transformed, unitary=False)
    assert slices.index == list(range(len(us))) and slices.errors == {}
    assert max(r.diagnostics.unitarity_residual for r in stacked) > 1e-10  # weak field
    for i, result in enumerate(stacked):
        alone = FWResult.of(u[i], hs[i], transformed[i], unitary=False).diagnostics
        assert result.diagnostics == alone, i


def test_result_reads_a_listed_transformed_hamiltonian():
    # once a raw TypeError from indexing the list with None
    h, _ = build_free_particle(1.0, (0.3, 0.4, 0.0))
    result = eriksen_transform(h)
    listed = FWResult.of(result.transform, h, result.transformed_hamiltonian.tolist())
    assert listed.diagnostics == result.diagnostics
    np.testing.assert_array_equal(listed.transformed_hamiltonian, result.transformed_hamiltonian)


# Each entry point that takes several operands, called on a 4x4 H (and its decomposition d)
# with one 8x8 operand x: (call, the message naming x by its own shape).
MISMATCHED = {
    "FWResult.of U": (lambda h, d, x: FWResult.of(x, h),
                      "U must have the shape (4, 4) of H, got shape (8, 8)"),
    "FWResult.of U H U^H": (lambda h, d, x: FWResult.of(np.eye(4), h, x),
                            "U H U^H must have the shape (4, 4) of H, got shape (8, 8)"),
    "weak_field_transform": (lambda h, d, x: weak_field_transform(h, x),
                             "root must have the shape (4, 4) of H, got shape (8, 8)"),
    "DiracDecomposition": (lambda h, d, x: DiracDecomposition(1.0, d.even_part, x),
                           "odd part must have the shape (4, 4) of even part, got shape (8, 8)"),
}


@pytest.mark.parametrize("entry", MISMATCHED)
def test_operands_of_another_shape_are_named(entry):
    # a typed error naming the operand and its own shape, not numpy's matmul ValueError or
    # the shape of an internal stack of one
    call, message = MISMATCHED[entry]
    h, d = build_free_particle(1.0, (0.3, 0.4, 0.0))
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call(h, d, np.eye(8, dtype=complex))


def test_diagnostics_reject_negative_entries():
    with pytest.raises(ValueError):
        DiagnosticSet(-1.0, 0.0, 0.0, None, 0.0)


def test_result_wrapper_rejects_non_unitary():
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.1))
    # the verdict reads the residual the diagnostics already measured, ||3 * 1||_F = 6
    with pytest.raises(NotUnitary, match=r"^\|\|U\^H U - 1\|\|_F = 6\.000e\+00 exceeds 1\.0e-10$"):
        FWResult.of(2.0 * np.eye(4), h, 4.0 * h)


def _gap_model(delta, seed):
    """(H, w): dim-8 H = V diag(w) V^H with V = exp(0.1 i A) near the identity, A a random
    Hermitian, and +-delta, +delta in the upper block, the eigenvalues nearest zero below 0.5."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    e, q = np.linalg.eigh(a + a.conj().T)
    v = (q * np.exp(0.05j * e)) @ q.conj().T
    w = np.array([delta, 0.5, 1.0, 2.0, -delta, -0.7, -1.3, -2.0])
    h = (v * w) @ v.conj().T
    return (h + h.conj().T) / 2, w


# Forward error against the 40-digit reference in units of eps max|w| / min|w|; measured over
# seeds 0-39 and delta = 1e-1 ... 1e-9: at most 0.22 (eriksen), 0.63 (eriksenalt) and 0.31
# (lambda), and for U H U^H at most 0.39 (eriksen) and 1.21 (eriksenalt).  An error growing
# faster than 1 / delta, as eps / delta^2, fails by orders.  Once the gap is open, at delta = 1
# and 0.5, the error scales as dim eps instead, so the unit there is eps (max|w| / min|w| + dim):
# at most 0.53 for lambda, and 1.17 for U and 2.21 for U H U^H, both from eriksenalt.
FORWARD_ERROR_C = 2.0
H_FW_FORWARD_ERROR_C = 4.0


def _assert_forward_error(h, unit, label):
    u_ref, lam_ref, h_fw_ref = mp_sign_transform(h)
    bound = FORWARD_ERROR_C * unit
    assert relative_norm(sign_operator(h) - lam_ref, lam_ref) <= bound, label
    for route in (eriksen_transform, eriksen_transform_alt):
        result = route(h)
        assert relative_norm(result.transform - u_ref, u_ref) <= bound, (route, label)
        assert (relative_norm(result.transformed_hamiltonian - h_fw_ref, h_fw_ref)
                <= H_FW_FORWARD_ERROR_C * unit), (route, label)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_error_grows_as_eps_over_the_gap(seed):
    pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for k in range(1, 10):
        h, w = _gap_model(10.0 ** -k, seed)
        _assert_forward_error(h, eps * np.abs(w).max() / np.abs(w).min(), k)
    for delta in (1.0, 0.5):
        h, w = _gap_model(delta, seed)
        _assert_forward_error(h, eps * (np.abs(w).max() / np.abs(w).min() + len(w)), delta)


# Where every angle nears pi/2 the unit is eps / min cos theta, min cos theta the smallest
# singular value of the upper block X of the positive eigenvectors.  Measured over seeds 0-2
# and b = 1e-1 ... 1e-3: U at most 0.33 (eriksen) and 0.99 (eriksenalt), U H U^H at most 0.05
# and 1.7.  The gap unit eps max|w| / min|w| fails here: at b = 1e-3 eriksenalt's U is off by
# 1000-2000 of it.  At b = 1e-4 min cos^2 theta nears GAP_RTOL, and seeds 0 and 2 are refused.
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_error_grows_as_eps_over_min_cos_theta(seed):
    pytest.importorskip("mpmath")
    for b in (1e-1, 1e-2, 1e-3):
        h = _angles_near_half_pi(b, seed)
        n = len(h) // 2
        upper = np.linalg.eigh(h)[1][:n, n:]
        _assert_forward_error(h, np.finfo(float).eps / np.linalg.svd(upper)[1].min(), b)
