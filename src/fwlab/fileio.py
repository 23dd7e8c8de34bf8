"""Flat-file formats: graded matrices and tabulated potentials.

Matrix files carry one header line ``dim upper_dim`` followed by dim rows
of dim whitespace-separated complex entries written as ``re+imj`` with
full round-trip precision, so save/load is bit-exact.  Lines starting
with ``#`` and blank lines are ignored.  Tabulated potentials hold one
real per line under the same comment rules.

All writes go through a temp file in the target directory followed by an
atomic rename.  A path is a str or os.PathLike: open() would read an int as
a file descriptor, and close the caller's.
"""

from __future__ import annotations

import cmath
import os
import uuid

import numpy as np

from .algebra import beta_signs, require_type
from .errors import DimensionMismatch, ParseError


def write_text(path, text: str):
    """Atomic plain-text write: a temp file in the target directory, created with the
    mode ``open(path, "w")`` would give (0o666 less the umask), then a rename."""
    require_type(path, (str, os.PathLike), "path", "a str or os.PathLike")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    require_type(path, (str, os.PathLike), "path", "a str or os.PathLike")
    with open(path, "r") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield number, line


def read_matrix(path) -> np.ndarray:
    """Load a graded matrix file; its header must read ``2n n`` for some n >= 1."""
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
        if dim <= 0 or dim % 2 != 0:
            raise ValueError(f"dim must be positive and even, got {dim}")
        if upper_dim * 2 != dim:
            raise ValueError(f"unequal blocks are not supported: dim={dim}, upper_dim={upper_dim}")
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", path=path, line=header_no) from exc
    # every row is read and checked before the matrix is allocated, so a header
    # with a huge dim fails at the first short row instead of in the allocation
    rows = []
    for number, line in lines:
        if len(rows) == dim:
            raise ParseError(f"unexpected extra data after {dim} rows", path=path, line=number)
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(f"expected {dim} entries, got {len(tokens)}", path=path, line=number)
        rows.append([_parse_entry(token, path, number, col)
                     for col, token in enumerate(tokens, start=1)])
    if len(rows) != dim:
        raise ParseError(f"expected {dim} data rows, found {len(rows)}", path=path)
    return np.array(rows, dtype=complex)


def _parse_entry(token, path, line, column) -> complex:
    try:
        z = complex(token)
    except ValueError as exc:
        raise ParseError(
            f"bad complex entry {token!r}", path=path, line=line, column=column
        ) from exc
    if not cmath.isfinite(z):
        raise ParseError(f"non-finite entry {token!r}", path=path, line=line, column=column)
    return z


def write_matrix(path, entries):
    """Save one 2n x 2n matrix under the header ``2n n``; read_matrix reproduces the entries
    bit-exactly.  DimensionMismatch naming the shape of any other array, a stack too."""
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim > 2:
        raise DimensionMismatch(f"entries must be 2n x 2n, n >= 1, got shape {entries.shape}")
    dim = len(beta_signs({"entries": entries}))
    rows = [f"{dim} {dim // 2}"] + [" ".join(map(format_complex, row)) for row in entries]
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
