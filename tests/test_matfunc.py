"""Kernel tests against independent oracles.

The kernels run on numpy.linalg.eigh, svd and solve; the oracles here use
different routes (scipy sqrtm, expm and the complex Schur form, an
eigenvector sign reconstruction, a scaling-and-squaring Taylor exponential)
so agreement is meaningful.  scipy is needed by these tests only: importing
fwlab must not load it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fwlab
from fwlab import (
    DiracDecomposition,
    Grading,
    Spectrum,
    check_commutation,
    epsilon_operator,
    eriksen_transform,
    eriksen_transform_alt,
    frobenius,
    inv_sqrt,
    make_beta,
    odd_exp,
    relative_norm,
    sign_operator,
    spectral_gap,
    sqrt_hd2_exact,
    stepwise_fw,
    u_fw_exact,
    unitary_log,
)
from fwlab.eriksen import METHOD_WEAK_FIELD
from fwlab.harness import MethodRow, _weak_field_row
from fwlab.matfunc import BRANCH_MARGIN, GAP_RTOL
from fwlab.errors import (
    BranchCutProximity,
    NonHermitianInput,
    NotUnitary,
    OutsideValidityDomain,
    SingularHamiltonian,
    SingularOperand,
)

from oracles import NotPositiveSemidefinite, principal_sqrt


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _random_psd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a.conj().T @ a


def _random_gapped_hermitian(rng, dim, gap=0.3):
    """Hermitian matrix with |eigenvalues| >= gap, mixed signs."""
    h = _random_hermitian(rng, dim)
    w, v = np.linalg.eigh(h)
    w = np.where(w >= 0.0, w + gap, w - gap)
    return (v * w) @ v.conj().T


def _random_block(rng, n, rank=None, norm=1.0):
    """n x n complex block of the given rank, scaled to spectral norm ``norm``."""
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    b = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    c = a @ b
    scale = np.linalg.norm(c, 2)
    return c * (norm / scale) if scale > 0.0 else c


def _odd_generator(c):
    """Dense 2n x 2n generator [[0, c], [-c^H, 0]]."""
    zero = np.zeros_like(c)
    return np.block([[zero, c], [-c.conj().T, zero]])


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _schur_log(u):
    """Principal logarithm read off the complex Schur form, diagonal for unitary u."""
    t, q = scipy.linalg.schur(u, output="complex")
    s = (q * np.angle(np.diag(t))) @ q.conj().T
    return 0.5 * (s + s.conj().T)


def _taylor_expm(a, terms=40):
    """Scaling-and-squaring Taylor series, independent of scipy.expm."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, 2)
    squarings = max(int(np.ceil(np.log2(norm))) + 3, 0) if norm > 0 else 0
    b = a / (2.0 ** squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_spectral_gap_known_spectrum():
    h = np.diag([3.0, -0.25, 1.5, -2.0])
    report = spectral_gap(h)
    assert report.min_abs_eigenvalue == pytest.approx(0.25, rel=1e-14)
    assert report.is_definite
    assert not spectral_gap(np.diag([1.0, 0.0])).is_definite
    # one verdict with sign_operator: w^2 = 1e-16 is below GAP_RTOL * ||H^2||_F = 1.4e-8
    tiny = np.diag([1e-8, -1e-8, 10.0, -10.0])
    assert not spectral_gap(tiny).is_definite
    with pytest.raises(SingularHamiltonian):
        sign_operator(tiny)


def test_principal_sqrt_against_scipy():
    rng = np.random.default_rng(10)
    for dim in (2, 5, 12):
        a = _random_psd(rng, dim)
        root = principal_sqrt(a)
        oracle = scipy.linalg.sqrtm(a)
        assert frobenius(root - oracle) <= 1e-9 * frobenius(oracle)
        assert frobenius(root @ root - a) <= 1e-11 * frobenius(a)
        # principal branch: PSD result
        assert np.linalg.eigvalsh(root).min() >= -1e-12


def test_principal_sqrt_identity():
    np.testing.assert_allclose(principal_sqrt(np.eye(6)), np.eye(6), atol=1e-15)


def test_principal_sqrt_clamps_rounding_noise():
    # an eigenvalue at -1e-16 is rounding noise, not indefiniteness
    a = np.diag([1.0, -1e-16])
    root = principal_sqrt(a)
    assert np.linalg.eigvalsh(root).min() >= 0.0


def test_principal_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        principal_sqrt(np.diag([1.0, -1.0]))


def test_inv_sqrt_inverts():
    rng = np.random.default_rng(11)
    a = _random_psd(rng, 8) + 0.1 * np.eye(8)
    isq = inv_sqrt(a)
    np.testing.assert_allclose(isq @ a @ isq, np.eye(8), atol=1e-11)
    oracle = np.linalg.inv(scipy.linalg.sqrtm(a))
    assert frobenius(isq - oracle) <= 1e-9 * frobenius(oracle)


def test_inv_sqrt_rejects_singular():
    with pytest.raises(SingularOperand):
        inv_sqrt(np.diag([1.0, 0.0]))


def test_sign_operator_against_eigen_reconstruction():
    rng = np.random.default_rng(12)
    for dim in (4, 9):
        h = _random_gapped_hermitian(rng, dim)
        lam = sign_operator(h)
        w, v = np.linalg.eigh(h)
        oracle = (v * np.sign(w)) @ v.conj().T
        np.testing.assert_allclose(lam, oracle, atol=1e-12)
        np.testing.assert_allclose(lam @ lam, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(lam, lam.conj().T, atol=1e-13)


def test_sign_operator_rejects_gapless():
    with pytest.raises(SingularHamiltonian):
        sign_operator(np.diag([1.0, 0.0, -1.0]))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(4, 64), log_delta=st.floats(float(np.log10(3e-5)), 0.0),
       seed=st.integers(0, 2**32 - 1))
def test_sign_operator_accuracy_against_gap(dim, log_delta, seed):
    """At relative gap delta the sign operator loses at most 1e-15 / delta."""
    delta = 10.0 ** log_delta
    rng = np.random.default_rng(seed)
    q = _haar_unitary(rng, dim)
    # eigenvalues +-delta straddle zero; the largest |eigenvalue| is 1
    w = rng.choice((-1.0, 1.0), dim) * rng.uniform(delta, 1.0, dim)
    w[:3] = (delta, -delta, rng.choice((-1.0, 1.0)))
    lam = sign_operator((q * w) @ q.conj().T)
    oracle = (q * np.sign(w)) @ q.conj().T
    assert relative_norm(lam - oracle, lam) <= max(1e-13, 1e-15 / delta)


def _gap_rule_sites(factor):
    """Every site of the gap rule, its operand's smallest eigenvalue at ``factor``
    times that site's own floor: (site, call, error type, message at factor 0.5)."""
    g = Grading(4, 2)
    # H with min w^2 against GAP_RTOL * ||H^2||_F = GAP_RTOL * sqrt(18)
    w = np.array([1.0, -1.0, 2.0, -np.sqrt(factor * GAP_RTOL * np.sqrt(18.0))])
    # a positive definite operand with min w against GAP_RTOL * ||a||_F = GAP_RTOL * sqrt(14)
    a = np.diag([1.0, 2.0, 3.0, factor * GAP_RTOL * np.sqrt(14.0)])
    # H = U^H diag(1, 2, -1, -2) U for the odd rotation U by (theta, 0), so K has
    # cos^2 theta = factor * GAP_RTOL * ||K||_F with ||K||_F = sqrt(2 (1 + cos^4 theta))
    u = fwlab.matfunc.odd_rotation(np.eye(2), np.array(
        [np.arccos(np.sqrt(factor * GAP_RTOL * np.sqrt(2.0))), 0.0]), np.eye(2))
    h_rotated = u.conj().T @ np.diag([1.0, 2.0, -1.0, -2.0]) @ u
    # B = diag(1, 0): m^2 + O^2 has min a = m^2 against GAP_RTOL * sqrt(2 ((1 + m^2)^2 + m^4))
    odd = np.zeros((4, 4))
    odd[0, 2] = odd[2, 0] = 1.0
    light = DiracDecomposition(g, np.sqrt(factor * GAP_RTOL * np.sqrt(2.0)), np.zeros((4, 4)), odd)
    # O = 0 and m = 1: the closed root is 1 + beta E = diag(1, 1, 1, x) against GAP_RTOL * sqrt(3)
    x = factor * GAP_RTOL * np.sqrt(3.0)
    strong = DiracDecomposition(g, 1.0, np.diag([0.0, 0.0, 0.0, 1.0 - x]), np.zeros((4, 4)))
    return [
        ("require_gap", lambda: sign_operator(np.diag(w)), SingularHamiltonian,
         "no spectral gap at zero: smallest eigenvalue 2.121e-10 "
         "is below the gap tolerance 4.243e-10"),
        ("inv_sqrt", lambda: inv_sqrt(a), SingularOperand,
         "smallest eigenvalue 1.871e-10 is below the gap tolerance 3.742e-10"),
        ("eriksen", lambda: eriksen_transform(h_rotated, g), SingularOperand,
         "smallest eigenvalue 7.071e-11 of K is below the gap tolerance 1.414e-10"),
        ("epsilon_operator", lambda: epsilon_operator(light), SingularOperand,
         "smallest eigenvalue 7.071e-11 is below the gap tolerance 1.414e-10"),
        ("sqrt_hd2_exact", lambda: sqrt_hd2_exact(strong), OutsideValidityDomain,
         "closed-form root has eigenvalue 8.660e-11; "
         "the even part is too strong for the principal branch"),
    ]


@pytest.mark.parametrize("factor, accepted", [(0.5, False), (2.0, True)])
def test_sign_operator_gap_threshold(factor, accepted):
    # each site at 0.5x and 2x its own floor GAP_RTOL * ||operand||_F (matfunc.gap_floor)
    for site, call, error, message in _gap_rule_sites(factor):
        if accepted:
            call()
            continue
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message, site
    # spectral_gap gives require_gap's verdict: min w^2 against GAP_RTOL * ||H^2||_F
    w = np.array([1.0, -1.0, 2.0, -np.sqrt(factor * GAP_RTOL * np.sqrt(18.0))])
    report = spectral_gap(np.diag(w))
    assert report.min_abs_eigenvalue == -w[3]
    assert report.is_definite == accepted
    if accepted:
        np.testing.assert_array_equal(sign_operator(np.diag(w)), np.diag(np.sign(w)))


def test_kernels_reuse_a_spectrum(monkeypatch):
    rng = np.random.default_rng(18)
    h = _random_gapped_hermitian(rng, 8)
    a = h @ h
    expected = (sign_operator(h), principal_sqrt(a), inv_sqrt(a), spectral_gap(h))
    spectrum, gram = Spectrum.of(h), Spectrum.of(a)
    assert Spectrum.of(spectrum) is spectrum

    def no_eigh(*args, **kwargs):
        raise AssertionError("a Spectrum argument must not be decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    got = (sign_operator(spectrum), principal_sqrt(gram), inv_sqrt(gram), spectral_gap(spectrum))
    for value, oracle in zip(got[:3], expected[:3]):
        np.testing.assert_array_equal(value, oracle)
    assert got[3] == expected[3]
    # apply returns V diag(f(w)) V^H, Hermitian bit for bit
    root = spectrum.apply(np.abs)
    np.testing.assert_array_equal(root, root.conj().T)
    np.testing.assert_allclose(root @ root, a, atol=1e-12)


def test_spectrum_rejects_non_hermitian_matrix():
    # eigh reads one triangle, so it would silently decompose some other matrix
    rng = np.random.default_rng(19)
    h = _random_gapped_hermitian(rng, 8)
    skew = rng.standard_normal((8, 8))
    skew = skew - skew.T
    Spectrum.of(h + 1e-14 * skew)
    for bad in (h + 1e-6 * skew, np.triu(h), np.full((8, 8), np.nan)):
        with pytest.raises(NonHermitianInput):
            Spectrum.of(bad)
        with pytest.raises(NonHermitianInput):
            inv_sqrt(bad)


def test_odd_exp_against_taylor():
    rng = np.random.default_rng(13)
    for n in (3, 7):
        generator = _odd_generator(_random_block(rng, n, norm=2.0))
        got = odd_exp(generator[:n, n:])
        oracle = _taylor_expm(generator)
        assert frobenius(got - oracle) <= 1e-12 * max(frobenius(oracle), 1.0)
        # the exponential of an anti-Hermitian generator is unitary
        np.testing.assert_allclose(got.conj().T @ got, np.eye(2 * n), atol=1e-13)


def test_odd_exp_of_zero_is_identity():
    np.testing.assert_array_equal(odd_exp(np.zeros((2, 2))), np.eye(4))


def test_odd_exp_against_expm():
    rng = np.random.default_rng(16)
    for n, rank, norm in ((1, 1, 0.5), (4, 4, 3.0), (8, 3, 1.0), (16, 1, 2.0),
                          (32, 0, 1.0), (32, 32, 0.05), (64, 20, 3.0)):
        c = _random_block(rng, n, rank, norm)
        oracle = scipy.linalg.expm(_odd_generator(c))
        got = odd_exp(c)
        assert frobenius(got - oracle) <= 1e-13 * frobenius(oracle), (n, rank, norm)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), rank_fraction=st.floats(0.0, 1.0),
       norm=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_odd_exp_unitary_and_adjoint(n, rank_fraction, norm, seed):
    c = _random_block(np.random.default_rng(seed), n, round(rank_fraction * n), norm)
    u = odd_exp(c)
    beta = make_beta(Grading(2 * n, n))
    assert frobenius(u.conj().T @ u - np.eye(2 * n)) <= 1e-13
    # the generator is odd, so beta U beta = exp(-G) = U^H
    assert frobenius(beta @ u @ beta - u.conj().T) <= 1e-13


def test_unitary_log_roundtrip():
    rng = np.random.default_rng(14)
    for scale in (0.1, 1.0, 2.5):
        s = scale * _random_hermitian(rng, 6)
        # keep eigenphases inside (-pi, pi) so the principal log recovers s
        phases = np.linalg.eigvalsh(s)
        if np.max(np.abs(phases)) >= np.pi - 0.1:
            s = s * (np.pi - 0.2) / np.max(np.abs(phases))
        u = scipy.linalg.expm(1j * s)
        recovered = unitary_log(u)
        np.testing.assert_allclose(recovered, s, atol=1e-11)


def test_unitary_log_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        unitary_log(np.diag([1.0, 2.0]))
    # a non-finite defect fails the tolerance too
    for bad in (np.nan, np.inf):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(NotUnitary):
            unitary_log(u)


def test_unitary_log_rejects_branch_cut():
    with pytest.raises(BranchCutProximity):
        unitary_log(np.diag([-1.0 + 0.0j, 1.0]))
    with pytest.raises(BranchCutProximity):
        unitary_log(np.diag([np.exp(1j * (np.pi - 1e-10)), 1.0 + 0.0j]))
    # off the diagonal, 1 + U is singular only up to rounding
    q = _haar_unitary(np.random.default_rng(17), 6)
    u = (q * np.exp(1j * np.array([np.pi, 0.3, -1.2, 2.0, 0.0, -2.9]))) @ q.conj().T
    assert frobenius(u - np.diag(np.diag(u))) > 1.0
    with pytest.raises(BranchCutProximity):
        unitary_log(u)


def test_unitary_log_hermitian_output():
    rng = np.random.default_rng(15)
    s = 0.3 * _random_hermitian(rng, 5)
    recovered = unitary_log(scipy.linalg.expm(1j * s))
    assert frobenius(recovered - recovered.conj().T) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), log_delta=st.floats(-10.0, float(np.log10(3.0))),
       seed=st.integers(0, 2**32 - 1))
def test_unitary_log_accuracy_against_phase_margin(n, log_delta, seed):
    """An eigenphase at distance delta from +-pi costs at most 1e-15 / delta."""
    delta = 10.0 ** log_delta
    # the computed margin carries rounding, so skip a sliver around the threshold
    assume(abs(delta / BRANCH_MARGIN - 1.0) > 1e-3)
    rng = np.random.default_rng(seed)
    q = _haar_unitary(rng, n)
    phases = (np.pi - delta) * rng.uniform(-1.0, 1.0, n)
    phases[0] = (np.pi - delta) * rng.choice((-1.0, 1.0))
    u = (q * np.exp(1j * phases)) @ q.conj().T
    if delta < BRANCH_MARGIN:
        with pytest.raises(BranchCutProximity):
            unitary_log(u)
        return
    s = unitary_log(u)
    s_true = (q * phases) @ q.conj().T
    assert frobenius(s - s_true) <= max(1e-12, 1e-15 / delta) * frobenius(s_true)
    np.testing.assert_array_equal(s, s.conj().T)


def test_unitary_log_matches_schur_on_suite_transforms(full_suite):
    checked = 0
    for spec, h, grading, decomposition in full_suite:
        transforms = [
            eriksen_transform(h, grading).transform,
            eriksen_transform_alt(h, grading).transform,
            stepwise_fw(h, grading, spec.mass)[0].transform,
        ]
        if check_commutation(decomposition).is_commuting:
            transforms.append(u_fw_exact(decomposition).transform)
            row = MethodRow(METHOD_WEAK_FIELD)
            transforms.append(_weak_field_row(decomposition, h, grading, row)[0])
        for u in transforms:
            oracle = _schur_log(u)
            assert relative_norm(unitary_log(u) - oracle, oracle) <= 1e-13, spec.describe()
            checked += 1
    # eriksen, eriksenalt and stepwise on all 40, exactcase and weakfield on 33
    assert checked == 186


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(fwlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, fwlab, fwlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
