"""Binary field persistence and CSV report writing.

Field files carry the magic "CSGS", a little-endian header (version, dim,
nodes per axis, half-width, boundary byte) and the raw float64 payloads of
u then v in row-major order, so a write/read round trip is bit-exact.

Each report chooses its own rows (``rows()``: a header tuple, then tuples of
raw values); this module only decides how a value becomes a cell.  Floats
are printed with 17 significant digits, which guarantees the parsed double
equals the in-memory one; booleans as true/false; a missing value as an
empty cell; commas inside text as ';'.
"""

from __future__ import annotations

import csv
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import FieldFileError
from .grid import FieldPair, Grid, GridSpec, build_grid

MAGIC = b"CSGS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdB")
_BOUNDARY_CODE = {"periodic": 0, "dirichlet": 1}
_BOUNDARY_NAME = {v: k for k, v in _BOUNDARY_CODE.items()}
_BOOLS = (bool, np.bool_)


def fmt_float(x: float) -> str:
    """17 significant digits: round-trips every finite double exactly."""
    return format(float(x), ".17g")


def _atomic_write(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(fp: FieldPair, path: str | Path) -> None:
    """Serialize a pair; whole-file atomic via temp-and-rename."""
    spec = fp.grid.spec
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        spec.dim,
        spec.points_per_dim,
        spec.half_width,
        _BOUNDARY_CODE[spec.boundary],
    )
    payload = (
        np.ascontiguousarray(fp.u, dtype="<f8").tobytes()
        + np.ascontiguousarray(fp.v, dtype="<f8").tobytes()
    )
    _atomic_write(path, header + payload)


def read_field(path: str | Path, grid: Grid | None = None) -> FieldPair:
    """Deserialize a pair, rebuilding the grid from the header if not given; the header holds no
    Laplacian mode, so a periodic fd2 file read without its grid lands on a spectral grid."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldFileError(f"file too short for a header: {len(raw)} bytes")
    magic, version, dim, n, half_width, boundary_code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFileError(f"bad magic: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise FieldFileError(f"unsupported field-file version {version}")
    if boundary_code not in _BOUNDARY_NAME:
        raise FieldFileError(f"unknown boundary code {boundary_code}")
    boundary = _BOUNDARY_NAME[boundary_code]
    try:  # checks dim, n and the half-width before they size the payload
        spec = GridSpec(dim, half_width, n, boundary, "spectral" if boundary == "periodic" else "fd2")
    except ValueError as exc:
        raise FieldFileError(f"bad field-file header: {exc}") from None
    if grid is not None:
        s = grid.spec
        if (s.dim, s.points_per_dim, s.boundary) != (dim, n, boundary) or s.half_width != half_width:
            raise FieldFileError("field file header does not match the supplied grid")

    count = n**dim
    expected = 2 * count * 8
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise FieldFileError(
            f"payload short: expected 2*n^d*8 = {expected} bytes, found {len(payload)}"
        )
    if grid is None:
        grid = build_grid(spec)

    shape = (n,) * dim
    u = np.frombuffer(payload[: count * 8], dtype="<f8").reshape(shape).astype(float)
    v = np.frombuffer(payload[count * 8:], dtype="<f8").reshape(shape).astype(float)
    fp = FieldPair(u, v, grid)
    try:
        fp.validate_finite()
    except ValueError as exc:
        raise FieldFileError(f"{path}: {exc}") from None
    return fp


# -- CSV reports --------------------------------------------------------------


def _cell(x: object) -> str:
    """How one raw value is written; reports choose the values, not their text."""
    if isinstance(x, float):  # the common case first: np.float64 is a float too
        return fmt_float(x)
    if x is None:
        return ""
    if isinstance(x, _BOOLS):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, tuple):
        return " ".join(_cell(y) for y in x)
    if isinstance(x, str):
        return x.replace(",", ";")
    return fmt_float(x)


def write_rows(path: str | Path, rows: list[tuple]) -> None:
    """Write tuples of raw values as UTF-8 CSV, one line per tuple."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    _atomic_write(path, text.encode("utf-8"))


def write_report_csv(report, path: str | Path) -> None:
    """Write a report's ``rows()``, a header tuple then data tuples, as CSV."""
    write_rows(path, report.rows())


def read_csv_rows(path: str | Path) -> list[dict[str, str]]:
    """Convenience reader returning one dict per data row."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
