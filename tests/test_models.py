import numpy as np
import pytest

from fwlab import (
    ModelSpec,
    Potential,
    build_free_particle,
    build_lattice_1d,
    build_model,
    build_synthetic_commuting,
    check_commutation,
    frobenius,
    hermiticity_defect,
    load_explicit_matrix,
    parse_potential,
    write_matrix,
)
from fwlab.cli import main
from fwlab.errors import InvalidGrid, NonHermitianInput, ParseError
from fwlab.models import (
    DIRAC_ALPHA,
    DIRAC_BETA,
    KIND_EXPLICIT,
    KIND_FREE,
    KIND_LATTICE,
    KIND_SYNTHETIC,
)


def test_dirac_matrices_clifford_algebra():
    matrices = (DIRAC_BETA,) + DIRAC_ALPHA
    for i, a in enumerate(matrices):
        np.testing.assert_array_equal(a, a.conj().T)
        for j, b in enumerate(matrices):
            target = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            np.testing.assert_allclose(a @ b + b @ a, target, atol=1e-15)


def test_free_particle_assembly():
    p = (0.3, -0.2, 0.5)
    h, g, d = build_free_particle(1.5, p)
    expected = 1.5 * DIRAC_BETA + sum(c * a for c, a in zip(p, DIRAC_ALPHA))
    np.testing.assert_array_equal(h, expected)
    assert g.dim == 4 and g.upper_dim == 2
    assert frobenius(d.even_part) == 0.0
    assert check_commutation(d).is_commuting
    with pytest.raises(ValueError):
        build_free_particle(1.0, (1.0, 2.0))


def test_lattice_dispersion_without_potential():
    n, length, mass = 16, 8.0, 1.0
    h, g, _ = build_lattice_1d(n, length, mass, Potential("zero"))
    dx = 2.0 * length / n
    lattice_momenta = np.sin(2.0 * np.pi * np.arange(n) / n) / dx
    band = np.sqrt(mass**2 + lattice_momenta**2)
    expected = np.sort(np.concatenate([band, -band]))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_lattice_parts_land_in_sectors():
    n, length = 8, 4.0
    pot = Potential("gaussian", (0.1, 1.0))
    h, g, d = build_lattice_1d(n, length, 1.0, pot)
    assert hermiticity_defect(h) <= 1e-15
    dx = 2.0 * length / n
    x = -length + (np.arange(n) + 0.5) * dx
    np.testing.assert_allclose(
        d.even_part, np.kron(np.eye(2), np.diag(pot.sample(x))), atol=1e-15
    )
    # kinetic term is purely odd
    assert frobenius(d.odd_part) > 0.1


def test_lattice_grid_gates():
    pot = Potential("zero")
    for bad_n in (3, 2, 0, 7):
        with pytest.raises(InvalidGrid):
            build_lattice_1d(bad_n, 4.0, 1.0, pot)
    with pytest.raises(InvalidGrid):
        build_lattice_1d(8, 0.0, 1.0, pot)
    for bad_length in (-1.0, np.inf, np.nan):
        with pytest.raises(InvalidGrid):
            build_lattice_1d(8, bad_length, 1.0, pot)


def test_potential_catalog():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(Potential("zero").sample(x), np.zeros(3))
    np.testing.assert_array_equal(
        Potential("constant", (0.3,)).sample(x), np.full(3, 0.3)
    )
    np.testing.assert_allclose(
        Potential("gaussian", (2.0, 1.0)).sample(x),
        2.0 * np.exp(-(x**2)),
    )
    np.testing.assert_array_equal(
        Potential("step", (0.5, 0.0)).sample(x), np.array([0.0, 0.5, 0.5])
    )
    np.testing.assert_array_equal(
        Potential("linear", (0.25,)).sample(x), 0.25 * x
    )


def test_potential_gates():
    with pytest.raises(ValueError):
        Potential("gaussian", (1.0,))
    with pytest.raises(ValueError):
        Potential("gaussian", (1.0, 0.0))
    with pytest.raises(ValueError):
        Potential("nosuch", ())
    with pytest.raises(ValueError):
        Potential("tabulated")
    with pytest.raises(ValueError):
        Potential("zero").with_strength(1.0)


def test_potential_strength_rescaling():
    pot = Potential("gaussian", (0.2, 1.5))
    assert pot.params[0] == 0.2
    scaled = pot.with_strength(0.05)
    assert scaled.params == (0.05, 1.5)
    assert scaled.describe() == "gaussian:0.05,1.5"
    assert Potential("zero").describe() == "zero"


def test_tabulated_potential_length_gate():
    pot = Potential("tabulated", table=(0.1, 0.2, 0.3), source="v.txt")
    np.testing.assert_array_equal(pot.sample(np.zeros(3)), [0.1, 0.2, 0.3])
    with pytest.raises(ParseError) as err:
        pot.sample(np.zeros(4))
    assert "v.txt" in str(err.value)


def test_parse_potential():
    assert parse_potential("zero") == Potential("zero")
    assert parse_potential("gaussian:0.1,2.0") == Potential("gaussian", (0.1, 2.0))
    with pytest.raises(ParseError):
        parse_potential("nosuch:1.0")
    with pytest.raises(ParseError):
        parse_potential("gaussian:a,b")
    with pytest.raises(ParseError):
        parse_potential("gaussian:0.1")
    with pytest.raises(ParseError):
        parse_potential("file:")


def test_parse_potential_rejects_non_finite():
    for text in ("gaussian:nan,1", "gaussian:0.1,inf", "constant:inf", "linear:-inf"):
        with pytest.raises(ParseError):
            parse_potential(text)
    # a sweep rescales the strength through the same gate
    with pytest.raises(ValueError):
        Potential("gaussian", (0.1, 1.0)).with_strength(float("nan"))


def test_parse_potential_from_file(tmp_path):
    table = tmp_path / "v.txt"
    table.write_text("0.1\n-0.25\n0.3\n")
    pot = parse_potential(f"file:{table}")
    assert pot.kind == "tabulated"
    assert pot.table == (0.1, -0.25, 0.3)
    assert pot.describe() == f"file:{table}"


def test_synthetic_model_commutes_and_reproduces():
    h, g, d = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 3)
    assert g.dim == 16
    report = check_commutation(d)
    assert report.is_commuting
    assert report.commutator_residual <= 1e-13
    h2, _, _ = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 3)
    assert h.tobytes() == h2.tobytes()
    h3, _, _ = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 4)
    assert h.tobytes() != h3.tobytes()
    with pytest.raises(ValueError):
        build_synthetic_commuting(1, 1.0, (0.1,), 0)
    with pytest.raises(ValueError, match="poly"):
        build_synthetic_commuting(4, 1.0, (np.nan,), 0)
    with pytest.raises(ValueError, match="poly"):
        build_synthetic_commuting(4, 1.0, (0.1, np.inf), 0)


def test_synthetic_empty_polynomial_is_field_free():
    _, _, d = build_synthetic_commuting(4, 1.0, (), 2)
    assert frobenius(d.even_part) == 0.0


def test_load_explicit_matrix(tmp_path, capsys):
    h, g, _ = build_free_particle(1.0, (0.1, 0.2, 0.3))
    path = tmp_path / "h.txt"
    write_matrix(path, h, g)
    loaded, loaded_grading = load_explicit_matrix(path)
    assert loaded.tobytes() == h.tobytes()
    assert loaded_grading == g

    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    bad_path = tmp_path / "bad.txt"
    write_matrix(bad_path, bad, g)
    with pytest.raises(NonHermitianInput):
        load_explicit_matrix(bad_path)

    # a 3e-11 defect would fail the split's 1e-12 later; the load check rejects it, naming the file
    slight = h.copy()
    slight[0, 2] += 3e-11 * frobenius(h) / np.sqrt(2.0)
    assert hermiticity_defect(slight) == pytest.approx(3e-11, rel=1e-3)
    slight_path = tmp_path / "slight.txt"
    write_matrix(slight_path, slight, g)
    message = f"{slight_path}: matrix is not Hermitian within 1e-12"
    with pytest.raises(NonHermitianInput) as err:
        load_explicit_matrix(slight_path)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["matrix", "--file", str(slight_path), "--mass", "1"]) == 1
    assert capsys.readouterr().err == f"fwlab: error: {message}\n"


def test_load_explicit_matrix_rejects_non_finite(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# comment\n2 1\n1.0+0.0j 0.0+0.0j\n0.0+0.0j nan+0.0j\n")
    with pytest.raises(ParseError) as err:
        load_explicit_matrix(path)
    assert (err.value.path, err.value.line, err.value.column) == (path, 4, 2)


def test_model_spec_describe():
    spec = ModelSpec(kind=KIND_FREE, mass=1.0, momentum=(0.0, 0.0, 0.75))
    assert spec.describe() == "free(mass=1.0, p=0.0,0.0,0.75)"
    spec = ModelSpec(
        kind=KIND_LATTICE, mass=1.0, n=32, length=8.0,
        potential=Potential("gaussian", (0.1, 1.0)),
    )
    assert spec.describe() == "lattice(n=32, L=8.0, mass=1.0, potential=gaussian:0.1,1.0, seed=None)"
    spec = ModelSpec(kind=KIND_SYNTHETIC, mass=2.0, n=6, poly=(0.1,), seed=5)
    assert spec.describe() == "synthetic(n=6, mass=2.0, poly=[0.1], seed=5)"


def test_build_model_dispatch(tmp_path):
    free = ModelSpec(kind=KIND_FREE, mass=1.0, momentum=(0.0, 0.0, 0.1))
    h, g, _ = build_model(free)
    assert g.dim == 4

    h_file, g_file, _ = build_model(ModelSpec(
        kind=KIND_EXPLICIT, mass=1.0,
        path=str(_written_matrix(tmp_path)),
    ))
    assert g_file.dim == 4

    with pytest.raises(ValueError):
        build_model(ModelSpec(kind=KIND_FREE, mass=0.0, momentum=(0.0, 0.0, 0.1)))
    with pytest.raises(ValueError):
        build_model(ModelSpec(kind="nosuch", mass=1.0))


@pytest.mark.parametrize("spec, message", [
    (ModelSpec(kind=KIND_FREE, mass=1.0), "free model needs momentum"),
    (ModelSpec(kind=KIND_LATTICE, mass=1.0), "lattice model needs n, length, potential"),
    (ModelSpec(kind=KIND_LATTICE, mass=1.0, n=8, length=4.0),
     "lattice model needs n, length, potential"),
    (ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, poly=(0.1,)), "synthetic model needs n"),
    (ModelSpec(kind=KIND_EXPLICIT, mass=1.0), "matrix model needs path"),
])
def test_build_model_names_missing_field(spec, message):
    with pytest.raises(ValueError) as err:
        build_model(spec)
    assert str(err.value) == message


def _written_matrix(tmp_path):
    h, g, _ = build_free_particle(1.0, (0.0, 0.0, 0.5))
    path = tmp_path / "model.txt"
    write_matrix(path, h, g)
    return path
