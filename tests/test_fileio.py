import os
import re
import stat

import numpy as np
import pytest

from fwlab import read_matrix, write_matrix
from fwlab.errors import DimensionMismatch, ParseError
from fwlab.fileio import format_complex, read_potential_table, write_text


def test_format_complex_round_trip_strings():
    assert format_complex(0.5 + 0.25j) == "0.5+0.25j"
    assert format_complex(-1.5 - 2.0j) == "-1.5-2.0j"
    assert format_complex(0.0 + 0.0j) == "0.0+0.0j"
    assert format_complex(complex(-0.0, -0.0)) == "-0.0-0.0j"
    # shortest round-trip repr, no precision loss
    z = complex(1.0 / 3.0, -1e-17)
    assert complex(format_complex(z)) == z


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(30)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a[0, 0] = complex(-0.0, 0.0)
    a[1, 2] = complex(1e-308, -1e-308)   # subnormal-ish magnitudes survive
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    b = read_matrix(path)
    assert b.tobytes() == a.tobytes()
    assert path.read_text().startswith("6 3\n")


def test_read_matrix_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "# a 2x2 graded matrix\n"
        "2 1\n"
        "\n"
        "1.0+0.0j 0.0+1.0j\n"
        "# middle comment\n"
        "0.0-1.0j -1.0+0.0j\n"
    )
    a = read_matrix(path)
    np.testing.assert_array_equal(a, np.array([[1.0, 1.0j], [-1.0j, -1.0]]))


def test_read_matrix_header_errors(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1.0+0.0j 0.0+0.0j\n0.0+0.0j 1.0+0.0j\n")
    with pytest.raises(ParseError):
        read_matrix(path)
    path.write_text("x 1\n")
    with pytest.raises(ParseError):
        read_matrix(path)
    # grading constraints surface as parse errors with the header line
    for header, problem in (("3 1", "dim must be positive and even, got 3"),
                            ("0 0", "dim must be positive and even, got 0"),
                            ("6 2", "unequal blocks are not supported: dim=6, upper_dim=2")):
        path.write_text(f"{header}\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(f'{path}:1: bad header: {problem}')}$"):
            read_matrix(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_write_matrix_needs_a_graded_shape(tmp_path):
    # a stack of graded matrices is refused by its shape before a line is formatted
    for shape in ((3, 3), (4, 2), (2, 4, 4)):
        message = f"entries must be 2n x 2n, n >= 1, got shape {shape}"
        with pytest.raises(DimensionMismatch, match=rf"^{re.escape(message)}$"):
            write_matrix(tmp_path / "m.txt", np.zeros(shape))
    assert not os.listdir(tmp_path)


def test_read_matrix_body_errors(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 1\n1.0+0.0j\n0.0+0.0j 1.0+0.0j\n")
    with pytest.raises(ParseError):
        read_matrix(path)

    path.write_text("2 1\n1.0+0.0j nope\n0.0+0.0j 1.0+0.0j\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    # location is reported as path:line:column
    assert f"{path}:2:2" in str(err.value)

    path.write_text("2 1\n1.0+0.0j 0.0-infj\n0.0+0.0j 1.0+0.0j\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert f"{path}:2:2" in str(err.value)

    path.write_text("2 1\n1.0+0.0j 0.0+0.0j\n")
    with pytest.raises(ParseError):
        read_matrix(path)

    path.write_text("2 1\n1.0+0.0j 0.0+0.0j\n0.0+0.0j 1.0+0.0j\n2.0+0.0j 0.0+0.0j\n")
    with pytest.raises(ParseError):
        read_matrix(path)


@pytest.mark.parametrize("header", ["1000000 500000", "4000000000 2000000000"])
def test_read_matrix_huge_header_fails_at_the_short_row(tmp_path, header):
    # the rows are checked before a dim x dim matrix is allocated
    path = tmp_path / "m.txt"
    path.write_text(f"{header}\n1.0+0.0j 0.0+0.0j\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert str(err.value).startswith(f"{path}:2: expected {header.split()[0]} entries, got 2")


def test_read_potential_table(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# values\n0.5\n\n-0.25\n1e-3\n")
    assert read_potential_table(path) == [0.5, -0.25, 1e-3]
    path.write_text("0.5\nnope\n")
    with pytest.raises(ParseError) as err:
        read_potential_table(path)
    assert f"{path}:2" in str(err.value)
    path.write_text("0.5\n# nan below\nnan\n")
    with pytest.raises(ParseError) as err:
        read_potential_table(path)
    assert f"{path}:3" in str(err.value)
    path.write_text("0.1 0.2\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:1: expected one value per "
                                         r"line, got 2$"):
        read_potential_table(path)


def test_write_text_replaces_atomically(tmp_path):
    path = tmp_path / "out.json"
    write_text(path, "first\n")
    write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_text_onto_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(IsADirectoryError):
        write_text(tmp_path / "out", "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_write_text_mode_matches_plain_open(tmp_path):
    previous = os.umask(0o022)
    try:
        write_text(tmp_path / "report.json", "{}\n")
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(previous)
    assert (stat.S_IMODE((tmp_path / "report.json").stat().st_mode)
            == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode))


def test_a_refused_path_leaves_the_descriptor_open():
    # open(2) read the int as stderr's descriptor, and its ``with`` block closed it
    saved = os.dup(2)
    try:
        with pytest.raises(ValueError, match="^path must be a str or os.PathLike, got int$"):
            read_matrix(2)
        os.fstat(2)
    finally:
        os.dup2(saved, 2)
        os.close(saved)


def test_parse_error_location_formatting():
    assert str(ParseError("bad token", path="f.txt", line=3, column=2)) == "f.txt:3:2: bad token"
    assert str(ParseError("bad header", path="f.txt", line=1)) == "f.txt:1: bad header"
    assert str(ParseError("plain message")) == "plain message"
