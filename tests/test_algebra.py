import re

import numpy as np
import pytest

from fwlab import (
    DiracDecomposition,
    anticommutator,
    beta_signs,
    commutator,
    even_projection,
    frobenius,
    hermiticity_defect,
    make_beta,
    odd_norm_ratio,
    odd_projection,
    relative_norm,
    split_even_odd,
)
from fwlab.errors import DimensionMismatch, NonHermitianInput


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_hermitian(rng, dim):
    a = _random_matrix(rng, dim)
    return 0.5 * (a + a.conj().T)


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(0)
    a = _random_matrix(rng, 7)
    assert frobenius(a) == pytest.approx(np.linalg.norm(a, "fro"), rel=1e-15)


def test_relative_norm_basic():
    a = np.eye(3)
    assert relative_norm(2.0 * a, a) == pytest.approx(2.0, rel=1e-15)
    # zero denominator is floored rather than raising
    assert relative_norm(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert np.isfinite(relative_norm(a, np.zeros((3, 3))))


def test_commutators_by_hand():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(commutator(a, b), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(anticommutator(a, b), np.eye(2))


def test_hermiticity_defect():
    rng = np.random.default_rng(1)
    h = _random_hermitian(rng, 6)
    assert hermiticity_defect(h) <= 1e-15
    assert hermiticity_defect(h + 1e-3 * 1j * np.eye(6)) > 1e-4


def test_grading_validation():
    # the grading is read off the shape: 2n x 2n, upper block first, on a matrix or a stack
    signs = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
    np.testing.assert_array_equal(beta_signs({"h": np.eye(6)}), signs)
    np.testing.assert_array_equal(beta_signs({"h": np.zeros((2, 6, 6)), "g": None}), signs)
    for shape in ((5, 5), (6, 4), (0, 0), (6,)):
        with pytest.raises(DimensionMismatch, match=rf"^h must be 2n x 2n, n >= 1, got shape "
                                                    rf"{re.escape(str(shape))}$"):
            beta_signs({"h": np.zeros(shape)})
    with pytest.raises(DimensionMismatch, match=r"^U must have the shape \(6, 6\) of H, "
                                                r"got shape \(4, 4\)$"):
        beta_signs({"H": np.eye(6), "U": np.eye(4)})
    with pytest.raises(DimensionMismatch):
        make_beta(5)


def test_make_beta():
    beta = make_beta(4)
    np.testing.assert_array_equal(beta, np.diag([1.0, 1.0, -1.0, -1.0]))
    np.testing.assert_array_equal(beta @ beta, np.eye(4))
    np.testing.assert_array_equal(make_beta(np.int64(2)), np.diag([1.0, -1.0]))
    # dim is read as an integer and checked before anything is built: raw TypeErrors once,
    # and numpy's "negative dimensions" ValueError for -2
    for dim in (2.0, "4", True, None):
        with pytest.raises(ValueError, match=re.escape(f"dim must be an integer, got {dim!r}")):
            make_beta(dim)
    for dim in (-2, 0, 1, 5):
        with pytest.raises(DimensionMismatch, match=f"^dim must be 2n, n >= 1, got {dim}$"):
            make_beta(dim)


def test_projections_split_exactly():
    rng = np.random.default_rng(2)
    beta = make_beta(8)
    a = _random_matrix(rng, 8)
    even = even_projection(a)
    odd = odd_projection(a)
    np.testing.assert_array_equal(even + odd, a)
    # block slicing is exact: these identities hold to the last bit
    assert frobenius(commutator(even, beta)) == 0.0
    assert frobenius(anticommutator(odd, beta)) == 0.0
    np.testing.assert_array_equal(even_projection(even), even)
    np.testing.assert_array_equal(odd_projection(odd), odd)
    assert frobenius(odd_projection(even)) == 0.0


def test_odd_norm_ratio_limits():
    beta = make_beta(4)
    assert odd_norm_ratio(beta) == 0.0
    purely_odd = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    assert odd_norm_ratio(purely_odd) == pytest.approx(1.0, rel=1e-15)
    assert odd_norm_ratio(np.zeros((4, 4))) == 0.0


def test_odd_norm_ratio_free_particle():
    from fwlab import build_free_particle

    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.75))
    # ||odd|| = 1.5, ||h|| = 2.5 for m=1, p=0.75
    assert odd_norm_ratio(h) == pytest.approx(0.6, rel=1e-14)


def test_decomposition_reconstructs():
    rng = np.random.default_rng(3)
    beta = make_beta(10)
    h = _random_hermitian(rng, 10)
    d = split_even_odd(h, 1.3)
    np.testing.assert_allclose(d.hamiltonian(), h, atol=1e-14)
    # even/odd parts land in the right blocks and stay Hermitian
    assert frobenius(odd_projection(d.even_part)) == 0.0
    assert frobenius(even_projection(d.odd_part)) == 0.0
    assert hermiticity_defect(d.even_part) <= 1e-14
    np.testing.assert_allclose(
        d.even_part + d.odd_part + 1.3 * beta, h, atol=1e-14
    )


def test_decomposition_projects_stray_blocks():
    # constructor re-projects, so a full matrix passed as even part keeps
    # only its block-diagonal piece
    rng = np.random.default_rng(4)
    a = _random_hermitian(rng, 6)
    d = DiracDecomposition(1.0, a, np.zeros((6, 6)))
    np.testing.assert_array_equal(d.even_part, even_projection(a))


def test_decomposition_gates():
    zero = np.zeros((4, 4))
    for bad_mass in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            DiracDecomposition(bad_mass, zero, zero)
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            split_even_odd(make_beta(4), bad_mass)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0  # even-block entry without its mirror
    with pytest.raises(NonHermitianInput):
        DiracDecomposition(1.0, skew, zero)
    odd_skew = np.zeros((4, 4), dtype=complex)
    odd_skew[0, 2] = 1.0
    with pytest.raises(NonHermitianInput):
        DiracDecomposition(1.0, zero, odd_skew)
    # NaN passes every tolerance comparison, so it is rejected by name
    with pytest.raises(NonHermitianInput):
        DiracDecomposition(1.0, np.full((4, 4), np.nan), zero)
    # finite parts whose norm over the mass overflows: E / m and O / 2m are never formed
    with pytest.raises(ValueError, match="^even part norm over mass 1e-200 overflows$"):
        DiracDecomposition(1e-200, 1e150 * make_beta(4), zero)
    with pytest.raises(ValueError, match="^odd part norm over mass 1e-200 overflows$"):
        DiracDecomposition(1e-200, zero, 1e150 * np.fliplr(np.eye(4)))


def test_split_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NonHermitianInput):
        split_even_odd(bad, 1.0)


def test_split_rejects_non_finite():
    for bad_value in (np.nan, np.inf):
        h = make_beta(4)
        h[1, 1] = bad_value
        with pytest.raises(NonHermitianInput):
            split_even_odd(h, 1.0)
