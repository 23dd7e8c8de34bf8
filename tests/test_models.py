import os
import re

import numpy as np
import pytest

from fwlab import (
    ModelSpec,
    Potential,
    build_free_particle,
    build_lattice_1d,
    build_model,
    build_synthetic_commuting,
    frobenius,
    hermiticity_defect,
    ToleranceConfig,
    load_explicit_matrix,
    parse_potential,
    report_json,
    run_comparison,
    write_matrix,
)
from fwlab import models
from fwlab.cli import main
from fwlab.exact_case import COMMUTE_TOL, ModelStack
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
    h, d = build_free_particle(1.5, p)
    expected = 1.5 * DIRAC_BETA + sum(c * a for c, a in zip(p, DIRAC_ALPHA))
    np.testing.assert_array_equal(h, expected)
    assert frobenius(d.even_part) == 0.0
    assert ModelStack.of([d]).commutation[0] <= COMMUTE_TOL
    with pytest.raises(ValueError):
        build_free_particle(1.0, (1.0, 2.0))


@pytest.mark.parametrize("component", [np.inf, np.nan])
def test_free_particle_rejects_non_finite_momentum(component):
    with pytest.raises(ValueError, match=r"momentum must be finite, got \(1\.0, (inf|nan), 0"):
        build_free_particle(1.0, (1.0, component, 0.0))


def test_lattice_dispersion_without_potential():
    n, length, mass = 16, 8.0, 1.0
    h, _ = build_lattice_1d(n, length, mass, Potential("zero"))
    dx = 2.0 * length / n
    lattice_momenta = np.sin(2.0 * np.pi * np.arange(n) / n) / dx
    band = np.sqrt(mass**2 + lattice_momenta**2)
    expected = np.sort(np.concatenate([band, -band]))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_lattice_parts_land_in_sectors():
    n, length = 8, 4.0
    pot = Potential("gaussian", (0.1, 1.0))
    h, d = build_lattice_1d(n, length, 1.0, pot)
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
    # dx = 0 by underflow, 1/(2 dx) = inf, and dx = inf: a raw ZeroDivisionError, an invalid
    # multiply before H's check, and a lattice built with dx = inf, once
    for bad_length in (5e-324, 1e-320, 1.7e308):
        with pytest.raises(InvalidGrid, match=re.escape(f"got L = {bad_length}, n = 8")):
            build_lattice_1d(8, bad_length, 1.0, pot)


def test_gaussian_far_outside_its_width_is_zero():
    # x / width overflowed with a RuntimeWarning, once; exp(-inf) is the exact 0 quietly
    for potential, length in (("gaussian:0.1,2", 1e200), ("gaussian:1e-320,1e-320", 4.0)):
        _, d = build_lattice_1d(8, length, 1.0, parse_potential(potential))
        assert not d.even_part.any()
    # a V that overflows H's norm still meets H's check
    message = "^Hamiltonian has a Frobenius norm that overflows$"
    with pytest.raises(NonHermitianInput, match=message):
        build_lattice_1d(8, 4.0, 1.0, parse_potential("linear:1e300"))


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
    h, d = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 3)
    assert h.shape == (16, 16)
    residual, = ModelStack.of([d]).commutation
    assert residual <= 1e-13
    h2, _ = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 3)
    assert h.tobytes() == h2.tobytes()
    h3, _ = build_synthetic_commuting(8, 1.0, (0.05, 0.02), 4)
    assert h.tobytes() != h3.tobytes()
    with pytest.raises(ValueError):
        build_synthetic_commuting(1, 1.0, (0.1,), 0)
    with pytest.raises(ValueError, match="poly"):
        build_synthetic_commuting(4, 1.0, (np.nan,), 0)
    with pytest.raises(ValueError, match="poly"):
        build_synthetic_commuting(4, 1.0, (0.1, np.inf), 0)


def test_synthetic_empty_polynomial_is_field_free():
    _, d = build_synthetic_commuting(4, 1.0, (), 2)
    assert frobenius(d.even_part) == 0.0


def test_load_explicit_matrix(tmp_path, capsys):
    h, _ = build_free_particle(1.0, (0.1, 0.2, 0.3))
    path = tmp_path / "h.txt"
    write_matrix(path, h)
    loaded = load_explicit_matrix(path)
    assert loaded.tobytes() == h.tobytes()

    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    bad_path = tmp_path / "bad.txt"
    write_matrix(bad_path, bad)
    with pytest.raises(NonHermitianInput):
        load_explicit_matrix(bad_path)

    # a 3e-11 defect would fail the split's 1e-12 later; the load check rejects it, naming the file
    slight = h.copy()
    slight[0, 2] += 3e-11 * frobenius(h) / np.sqrt(2.0)
    assert hermiticity_defect(slight) == pytest.approx(3e-11, rel=1e-3)
    slight_path = tmp_path / "slight.txt"
    write_matrix(slight_path, slight)
    message = f"{slight_path}: matrix is not Hermitian within 1e-12"
    with pytest.raises(NonHermitianInput) as err:
        load_explicit_matrix(slight_path)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["matrix", "--file", str(slight_path), "--mass", "1"]) == 1
    assert capsys.readouterr().err == f"fwlab: error: {message}\n"


@pytest.mark.parametrize("spec, source", [
    pytest.param(ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(1e300, 1e300), seed=1),
                 "even part", id="synthetic-poly"),
    pytest.param(ModelSpec(kind=KIND_SYNTHETIC, mass=1e154, n=4, poly=(0.0,), seed=1),
                 "Hamiltonian", id="synthetic-mass"),
    pytest.param(ModelSpec(kind=KIND_LATTICE, mass=1.0, n=8, length=4.0,
                           potential=Potential("gaussian", (1e155, 1.0))),
                 "Hamiltonian", id="lattice-g"),
    pytest.param(ModelSpec(kind=KIND_FREE, mass=1e155, momentum=(0.0, 0.0, 0.1)),
                 "Hamiltonian", id="free-mass"),
    pytest.param(ModelSpec(kind=KIND_LATTICE, mass=1e155, n=8, length=4.0,
                           potential=Potential("gaussian", (0.2, 1.0))),
                 "Hamiltonian", id="lattice-mass"),
])
def test_overflowing_norm_fails_at_build(spec, source):
    # every entry is finite, but ||H||_F^2, which every route's products reach, is not;
    # warnings are errors under pytest, so no RuntimeWarning escapes either
    message = f"^{source} has a Frobenius norm that overflows$"
    with pytest.raises(NonHermitianInput, match=message):
        build_model(spec)
    with pytest.raises(NonHermitianInput, match=message):
        run_comparison(spec)


def test_cli_rejects_an_overflowing_matrix_file(tmp_path, capsys):
    h, _ = build_free_particle(1.0, (0.3, 0.0, 0.4))
    path = tmp_path / "huge.txt"
    write_matrix(path, 1e300 * h)
    assert main(["matrix", "--file", str(path), "--mass", "1"]) == 1
    assert capsys.readouterr().err == (
        f"fwlab: error: {path}: matrix has a Frobenius norm that overflows\n")


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
    h, _ = build_model(free)
    assert h.shape == (4, 4)

    h_file, _ = build_model(ModelSpec(
        kind=KIND_EXPLICIT, mass=1.0,
        path=str(_written_matrix(tmp_path)),
    ))
    assert h_file.shape == (4, 4)

    with pytest.raises(ValueError):
        build_model(ModelSpec(kind=KIND_FREE, mass=0.0, momentum=(0.0, 0.0, 0.1)))
    with pytest.raises(ValueError):
        build_model(ModelSpec(kind="nosuch", mass=1.0))


@pytest.mark.parametrize("spec, message", [
    (ModelSpec(kind=KIND_FREE, mass=1.0), "free model needs momentum"),
    (ModelSpec(kind=KIND_LATTICE, mass=1.0), "lattice model needs n, length, potential"),
    (ModelSpec(kind=KIND_LATTICE, mass=1.0, n=8, length=4.0),
     "lattice model needs n, length, potential"),
    (ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, poly=(0.1,)), "synthetic model needs n, seed"),
    (ModelSpec(kind=KIND_EXPLICIT, mass=1.0), "matrix model needs path"),
    # a seedless synthetic model once drew its block from OS entropy, new on every run
    (ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(0.1,)), "synthetic model needs n, seed"),
])
def test_build_model_names_missing_field(spec, message):
    with pytest.raises(ValueError) as err:
        build_model(spec)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        spec.describe()
    assert str(err.value) == message



GAUSS = Potential("gaussian", (0.1, 1.0))


@pytest.mark.parametrize("fields, message", [
    pytest.param(dict(kind=KIND_LATTICE, mass=True, n=8, length=4.0, potential=GAUSS),
                 "mass must be a real number, got True", id="mass-bool"),
    pytest.param(dict(kind=KIND_FREE, mass="1.0", momentum=(0.0, 0.0, 0.1)),
                 "mass must be a real number, got '1.0'", id="mass-str"),
    pytest.param(dict(kind=KIND_LATTICE, mass=1.0, n=8.0, length=4.0, potential=GAUSS),
                 "n must be an integer, got 8.0", id="lattice-n-float"),
    pytest.param(dict(kind=KIND_LATTICE, mass=1.0, n=True, length=4.0, potential=GAUSS),
                 "n must be an integer, got True", id="lattice-n-bool"),
    pytest.param(dict(kind=KIND_LATTICE, mass=1.0, n=8, length=True, potential=GAUSS),
                 "length must be a real number, got True", id="length-bool"),
    pytest.param(dict(kind=KIND_SYNTHETIC, mass=1.0, n=4.0, poly=(0.1,), seed=1),
                 "n must be an integer, got 4.0", id="synthetic-n-float"),
    pytest.param(dict(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(0.1,), seed=1.5),
                 "seed must be an integer, got 1.5", id="synthetic-seed-float"),
    # an int beyond float range raised a raw OverflowError; past 4300 digits Python refuses to
    # print it, so the message names the field and not the number
    pytest.param(dict(kind=KIND_FREE, mass=10**400, momentum=(0.0, 0.0, 0.1)),
                 "mass must be a real number, got an int beyond float range", id="mass-huge-int"),
    pytest.param(dict(kind=KIND_FREE, mass=-10**5000, momentum=(0.0, 0.0, 0.1)),
                 "mass must be a real number, got an int beyond float range", id="mass-5001-digits"),
    pytest.param(dict(kind=KIND_LATTICE, mass=1.0, n=8, length=10**400, potential=GAUSS),
                 "length must be a real number, got an int beyond float range",
                 id="length-huge-int"),
    # n sets H's dimension 2n, so the spec reads it by the builders' one size rule; 10**400
    # raised a raw OverflowError and 2**70 numpy's unnamed "Maximum allowed size exceeded"
    pytest.param(dict(kind=KIND_LATTICE, mass=1.0, n=10**400, length=4.0, potential=GAUSS),
                 "n = an int beyond float range exceeds 1024, as 2n is at most MAX_DIM = 2048",
                 id="lattice-n-huge-int"),
    pytest.param(dict(kind=KIND_SYNTHETIC, mass=1.0, n=2**70, poly=(0.1,), seed=1),
                 f"n = {2**70} exceeds 1024, as 2n is at most MAX_DIM = 2048",
                 id="synthetic-n-past-numpy"),
])
def test_model_spec_reads_its_numbers_by_one_rule(fields, message):
    # each once ran as a bool or raised a raw TypeError deep in a builder
    with pytest.raises(ValueError) as err:
        run_comparison(ModelSpec(**fields), ("eriksen",))
    assert str(err.value) == message


@pytest.mark.parametrize("params", [("0.1", 1.0), (True, 1.0), (0.1, np.True_)])
def test_potential_parameters_are_real_numbers(params):
    with pytest.raises(ValueError, match="^potential 'gaussian' parameter must be a real number"):
        Potential("gaussian", params)


def test_potential_stores_a_tuple_of_floats():
    pot = Potential("gaussian", [0.1, np.float32(1.0)])
    assert pot == GAUSS and [type(p) for p in pot.params] == [float, float]
    assert pot.with_strength(0.2) == Potential("gaussian", (0.2, 1.0))
    with pytest.raises(ValueError, match="parameter must be a real number, got True"):
        pot.with_strength(True)


def _spec_run(**fields):
    return lambda: run_comparison(ModelSpec(**fields), ("eriksen",))


FREE = dict(kind=KIND_FREE, mass=1.0)
SYNTHETIC = dict(kind=KIND_SYNTHETIC, mass=1.0, n=4, seed=1)


@pytest.mark.parametrize("make, message", [
    pytest.param(_spec_run(**FREE, momentum=(True, 0, 0)),
                 "momentum must be a real number, got True", id="momentum-bool"),
    pytest.param(_spec_run(**FREE, momentum=("0.5", 0, 0)),
                 "momentum must be a real number, got '0.5'", id="momentum-str"),
    pytest.param(_spec_run(**FREE, momentum=(None, 0, 0)),
                 "momentum must be a real number, got None", id="momentum-none"),
    pytest.param(_spec_run(**FREE, momentum=(1.0, 2.0)),
                 "momentum needs 3 entries, got 2", id="momentum-count"),
    pytest.param(_spec_run(**FREE, momentum="0,0,1"),
                 "momentum must be a list, tuple or 1-D array, got '0,0,1'", id="momentum-text"),
    pytest.param(_spec_run(**SYNTHETIC, poly={}),
                 "poly must be a list, tuple or 1-D array, got {}", id="poly-dict"),
    pytest.param(_spec_run(**SYNTHETIC, poly=0.1),
                 "poly must be a list, tuple or 1-D array, got 0.1", id="poly-scalar"),
    pytest.param(_spec_run(**SYNTHETIC, poly=(True, 0, 0)),
                 "poly must be a real number, got True", id="poly-bool"),
    pytest.param(_spec_run(kind=KIND_SYNTHETIC, mass=1.0, n=4, poly=(0.1,)),
                 "synthetic model needs n, seed", id="synthetic-seedless"),
    pytest.param(_spec_run(kind=KIND_LATTICE, mass=1.0, n=8, length=4.0,
                           potential="gaussian:0.1,1"),
                 "potential must be a Potential, got 'gaussian:0.1,1'", id="potential-str"),
    pytest.param(lambda: Potential("constant", 0.2),
                 "potential 'constant' parameter must be a list, tuple or 1-D array, got 0.2",
                 id="params-scalar"),
    pytest.param(lambda: Potential("zero", (0.1,)),
                 "potential 'zero' parameter needs 0 entries, got 1", id="params-zero-count"),
    pytest.param(lambda: Potential("gaussian", (0.1,)),
                 "potential 'gaussian' parameter needs 2 entries, got 1", id="params-count"),
    pytest.param(lambda: Potential("tabulated", table=("a",) * 8),
                 "potential table must be a real number, got 'a'", id="table-str"),
    pytest.param(lambda: Potential("tabulated", table=np.full(8, np.nan)),
                 "potential table must be finite, got (nan, nan, nan, nan, nan, nan, nan, nan)",
                 id="table-nan"),
    pytest.param(_spec_run(**FREE, momentum=(0, 10**400, 0)),
                 "momentum must be a real number, got an int beyond float range",
                 id="momentum-huge-int"),
    pytest.param(_spec_run(**SYNTHETIC, poly=(0.1, -10**400)),
                 "poly must be a real number, got an int beyond float range", id="poly-huge-int"),
    pytest.param(lambda: Potential("gaussian", (10**400, 1.0)),
                 "potential 'gaussian' parameter must be a real number, got an int beyond float "
                 "range", id="params-huge-int"),
    pytest.param(lambda: ToleranceConfig(stepwise_tol=10**400),
                 "tol must be positive and finite, got an int beyond float range",
                 id="stepwise-tol-huge-int"),
])
def test_model_vectors_read_by_the_number_rule(make, message):
    # each once ran silently, was read as NaN, or raised a raw TypeError or AttributeError
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_vectors_are_stored_as_tuples_of_floats():
    pot = Potential("tabulated", table=np.arange(4))
    assert pot.table == (0.0, 1.0, 2.0, 3.0) and type(pot.table[0]) is float
    assert pot.sample(np.zeros(4)).tolist() == [0.0, 1.0, 2.0, 3.0]
    h, _ = build_free_particle(1.0, np.array([0, 0, 1]))
    assert h.tobytes() == build_free_particle(1.0, (0.0, 0.0, 1.0))[0].tobytes()


def test_an_int_stays_a_real():
    report = run_comparison(ModelSpec(kind=KIND_FREE, mass=1, momentum=(0, 0, 1)), ("eriksen",))
    assert report.model_descriptor == "free(mass=1, p=0.0,0.0,1.0)"
    assert '"mass": 1,' in report_json(report)


def test_big_ints_within_their_range_are_read():
    # 2**70 is within a float's range and an integer cap has no such range: neither is refused
    tolerances = ToleranceConfig(max_iterations=10**400)
    assert tolerances.max_iterations == 10**400
    report = run_comparison(ModelSpec(kind=KIND_FREE, mass=2**70, momentum=(0, 0, 1)),
                            ("eriksen", "stepwise"), tolerances)
    assert not report.has_errors() and f'"mass": {2**70},' in report_json(report)


@pytest.mark.parametrize("path", [True, False, 1, np.int64(3), b"h.txt", 0.5],
                         ids=["true", "false", "int", "numpy-int", "bytes", "float"])
def test_model_path_is_a_str_or_path_like(path):
    # open() reads an int as a file descriptor, which the reader's ``with`` then closed: True
    # closed stdout, False stdin and np.int64(3) fd 3
    with pytest.raises(ValueError) as err:
        run_comparison(ModelSpec(kind=KIND_EXPLICIT, mass=1.0, path=path))
    assert str(err.value) == f"path must be a str or os.PathLike, got {path!r}"
    os.fstat(0)
    os.fstat(1)


def test_model_path_may_be_a_path_object(tmp_path):
    h, _ = build_free_particle(1.0, (0.3, 0.0, 0.4))
    write_matrix(tmp_path / "h.txt", h)
    specs = [ModelSpec(kind=KIND_EXPLICIT, mass=1.0, path=path)
             for path in (tmp_path / "h.txt", str(tmp_path / "h.txt"))]
    assert report_json(run_comparison(specs[0])) == report_json(run_comparison(specs[1]))


def test_model_descriptors(tmp_path):
    # one exact descriptor per model kind
    assert ModelSpec(kind=KIND_FREE, mass=2.5, momentum=(0, -0.5, 1e-20)).describe() == (
        "free(mass=2.5, p=0.0,-0.5,1e-20)")
    assert ModelSpec(kind=KIND_LATTICE, mass=1.0, n=16, length=8, potential=GAUSS,
                     seed=4).describe() == (
        "lattice(n=16, L=8.0, mass=1.0, potential=gaussian:0.1,1.0, seed=4)")
    assert ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=6, poly=(0.05, 2), seed=3).describe() == (
        "synthetic(n=6, mass=1.0, poly=[0.05,2.0], seed=3)")
    assert ModelSpec(kind=KIND_EXPLICIT, mass=0.5, path="h.txt").describe() == (
        "matrix(path=h.txt, mass=0.5)")


@pytest.mark.parametrize("potential, descriptor", [
    (Potential("zero"), "zero"),
    (Potential("constant", (-0.1,)), "constant:-0.1"),
    (Potential("gaussian", (0.2, 1.5)), "gaussian:0.2,1.5"),
    (Potential("step", (0.15, 0)), "step:0.15,0.0"),
    (Potential("linear", (1e-3,)), "linear:0.001"),
    (Potential("tabulated", table=(0.1, 0.2, 0.3)), "tabulated:3"),
    (Potential("tabulated", table=(0.1, 0.2), source="v.txt"), "file:v.txt"),
])
def test_potential_descriptors(potential, descriptor):
    assert potential.describe() == descriptor
    if potential.kind != "tabulated":
        assert parse_potential(descriptor) == potential

def _written_matrix(tmp_path):
    h, _ = build_free_particle(1.0, (0.0, 0.0, 0.5))
    path = tmp_path / "model.txt"
    write_matrix(path, h)
    return path


class _UnusedNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} is used before the size check")


@pytest.mark.parametrize("n", [1025, 2**70])
def test_builders_refuse_a_dimension_over_the_cap(monkeypatch, n):
    # the check comes first, before numpy is touched, so 2**70 fails as 1025 does
    monkeypatch.setattr(models, "np", _UnusedNumpy())
    message = rf"^n = {n} exceeds 1024, as 2n is at most MAX_DIM = 2048$"
    with pytest.raises(InvalidGrid, match=message):
        build_lattice_1d(n, 8.0, 1.0, Potential("zero"))
    with pytest.raises(ValueError, match=message):
        build_synthetic_commuting(n, 1.0, (0.1,), 0)


@pytest.mark.parametrize("n", [1025, 2**70, 10**400, 10**5000], ids=["1025", "2**70", "10**400",
                                                                     "10**5000"])
def test_one_size_rule_names_n(n):
    # the spec and both builders refuse n by one rule with one message; past float range it is
    # not printed, as 10**5000 is past the digits Python converts to text
    shown = n if n < 2**1024 else "an int beyond float range"
    message = f"n = {shown} exceeds 1024, as 2n is at most MAX_DIM = 2048"
    for make, error in (
            (lambda: ModelSpec(kind=KIND_LATTICE, mass=1.0, n=n, length=4.0, potential=GAUSS),
             ValueError),
            (lambda: ModelSpec(kind=KIND_SYNTHETIC, mass=1.0, n=n, seed=1), ValueError),
            (lambda: build_lattice_1d(n, 8.0, 1.0, Potential("zero")), InvalidGrid),
            (lambda: build_synthetic_commuting(n, 1.0, (0.1,), 0), ValueError)):
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message
