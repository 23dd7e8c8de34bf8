"""Flat-file formats: graded matrices and tabulated potentials.

Matrix files carry one header line ``dim upper_dim`` followed by dim rows
of dim whitespace-separated complex entries written as ``re+imj`` with
full round-trip precision, so save/load is bit-exact.  Lines starting
with ``#`` and blank lines are ignored.  Tabulated potentials hold one
real per line under the same comment rules.

All writes go through a temp file in the target directory followed by an
atomic rename.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .algebra import Grading
from .errors import ParseError


def write_text(path, text: str):
    """Atomic plain-text write: a temp file in the target directory, then a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_complex(z) -> str:
    """Render a complex number as re+imj, round-tripping every bit."""
    re, im = float(np.real(z)), float(np.imag(z))
    sign = "-" if np.signbit(im) else "+"
    return f"{re!r}{sign}{abs(im)!r}j"


def _data_lines(path):
    with open(path, "r") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield number, line


def read_matrix(path) -> tuple[np.ndarray, Grading]:
    """Load a graded matrix file; returns (entries, grading)."""
    lines = _data_lines(path)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty file, expected a 'dim upper_dim' header", path=path)
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(
            f"header must be 'dim upper_dim', got {len(fields)} fields",
            path=path, line=header_no,
        )
    try:
        dim, upper_dim = int(fields[0]), int(fields[1])
        grading = Grading(dim, upper_dim)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", path=path, line=header_no) from exc
    entries = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        try:
            number, line = next(lines)
        except StopIteration:
            raise ParseError(
                f"expected {dim} data rows, found {row}", path=path
            ) from None
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(
                f"expected {dim} entries, got {len(tokens)}", path=path, line=number
            )
        for col, token in enumerate(tokens):
            try:
                entries[row, col] = complex(token)
            except ValueError as exc:
                raise ParseError(
                    f"bad complex entry {token!r}", path=path, line=number, column=col + 1
                ) from exc
            if not np.isfinite(entries[row, col]):
                raise ParseError(
                    f"non-finite entry {token!r}", path=path, line=number, column=col + 1
                )
    leftovers = next(lines, None)
    if leftovers is not None:
        raise ParseError(
            f"unexpected extra data after {dim} rows", path=path, line=leftovers[0]
        )
    return entries, grading


def write_matrix(path, entries, grading: Grading):
    """Save a graded matrix; read_matrix reproduces the entries bit-exactly."""
    entries = grading.check(np.asarray(entries, dtype=complex))
    rows = [f"{grading.dim} {grading.upper_dim}"]
    for row in range(grading.dim):
        rows.append(" ".join(format_complex(z) for z in entries[row]))
    write_text(path, "\n".join(rows) + "\n")


def read_potential_table(path) -> list[float]:
    """Load a tabulated potential, one real value per line."""
    values = []
    for number, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) != 1:
            raise ParseError(
                f"expected one value per line, got {len(tokens)}", path=path, line=number
            )
        try:
            values.append(float(tokens[0]))
        except ValueError as exc:
            raise ParseError(
                f"bad real value {tokens[0]!r}", path=path, line=number
            ) from exc
        if not np.isfinite(values[-1]):
            raise ParseError(f"non-finite value {tokens[0]!r}", path=path, line=number)
    return values
