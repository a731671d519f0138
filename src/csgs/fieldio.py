"""Binary field persistence and CSV report writers.

Field files carry the magic "CSGS", a little-endian header (version, dim,
nodes per axis, half-width, boundary byte) and the raw float64 payloads of
u then v in row-major order, so a write/read round trip is bit-exact.
CSV floats are printed with 17 significant digits, which guarantees the
parsed double equals the in-memory one.
"""

from __future__ import annotations

import csv
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .diagnostics import NonexistenceReport, PohozaevReport
from .errors import FieldFileError
from .grid import FieldPair, Grid, GridSpec, build_grid
from .potentials import ValidationReport
from .solver import ComparisonReport, MuSweep, SolveReport

MAGIC = b"CSGS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdB")
_BOUNDARY_CODE = {"periodic": 0, "dirichlet": 1}
_BOUNDARY_NAME = {v: k for k, v in _BOUNDARY_CODE.items()}


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
    """Deserialize a pair, rebuilding the grid from the header if not given."""
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

    count = n**dim
    expected = 2 * count * 8
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise FieldFileError(
            f"payload short: expected 2*n^d*8 = {expected} bytes, found {len(payload)}"
        )

    if grid is None:
        mode = "spectral" if boundary == "periodic" else "fd2"
        grid = build_grid(GridSpec(dim, half_width, n, boundary, mode))
    else:
        s = grid.spec
        if (s.dim, s.points_per_dim, s.boundary) != (dim, n, boundary) or s.half_width != half_width:
            raise FieldFileError("field file header does not match the supplied grid")

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


def _write_rows(path: str | Path, rows: list[list[str]]) -> None:
    buf = []
    for row in rows:
        buf.append(",".join(row))
    _atomic_write(path, ("\n".join(buf) + "\n").encode("utf-8"))


def _solve_rows(report: SolveReport) -> list[list[str]]:
    rows = [["iter", "energy", "grad_norm"]]
    for i, (e, gn) in enumerate(zip(report.energy_trace, report.grad_trace)):
        rows.append([str(i), fmt_float(e), fmt_float(gn)])
    return rows


def _sweep_rows(sweep: MuSweep) -> list[list[str]]:
    rows = [["mu", "c", "threshold", "below_threshold"]]
    for mu, c, ok in zip(sweep.mu_values, sweep.energies, sweep.converged):
        if sweep.threshold is None:
            thr, below = "", ""
        else:
            thr = fmt_float(sweep.threshold)
            below = str(bool(ok and np.isfinite(c) and c < sweep.threshold)).lower()
        rows.append([fmt_float(mu), fmt_float(c), thr, below])
    return rows


def _validation_rows(report: ValidationReport) -> list[list[str]]:
    rows = [["assumption", "passed", "worst_value", "worst_node", "note"]]
    for c in report.checks:
        node = "" if c.worst_node is None else " ".join(fmt_float(x) for x in c.worst_node)
        note = c.note.replace(",", ";")
        rows.append([c.name, str(c.passed).lower(), fmt_float(c.worst_value), node, note])
    if report.nu1 is not None:
        rows.append(["nu1", "", fmt_float(report.nu1), "", "smallest Rayleigh quotient"])
        rows.append(["nu2", "", fmt_float(report.nu2), "", "smallest Rayleigh quotient"])
    return rows


def _comparison_rows(report: ComparisonReport) -> list[list[str]]:
    return [
        ["c_periodic", "c_asym", "gap", "margin", "passed"],
        [
            fmt_float(report.c_periodic),
            fmt_float(report.c_asym),
            fmt_float(report.gap),
            fmt_float(report.margin),
            str(report.passed).lower(),
        ],
    ]


def _pohozaev_rows(report: PohozaevReport) -> list[list[str]]:
    rows = [["quantity", "value"]]
    rows.append(["lhs", fmt_float(report.lhs)])
    rows.append(["rhs", fmt_float(report.rhs)])
    rows.append(["residual", fmt_float(report.residual)])
    rows.append(["relative", fmt_float(report.relative)])
    for name, val in report.terms.items():
        rows.append([f"term:{name}", fmt_float(val)])
    rows.append(["grad_norm", fmt_float(report.grad_norm)])
    rows.append(["near_critical", str(report.near_critical).lower()])
    rows.append(["boundary_shell_max", fmt_float(report.boundary_shell_max)])
    return rows


def _nonexistence_rows(report: NonexistenceReport) -> list[list[str]]:
    rows = [["quantity", "value"]]
    rows.append(["q_value", fmt_float(report.q_value)])
    rows.append(["q_nonneg_ok", str(report.q_nonneg_ok).lower()])
    rows.append(["pohozaev_side", fmt_float(report.pohozaev_side)])
    rows.append(["margin", fmt_float(report.margin)])
    rows.append(["q_amgm", fmt_float(report.q_amgm)])
    rows.append(["q_delta", fmt_float(report.q_delta)])
    rows.append(["strict_gap", fmt_float(report.strict_gap)])
    rows.append(["lambda_sign", report.lambda_sign])
    return rows


def write_report_csv(report, path: str | Path) -> None:
    """Write any report type as UTF-8 CSV with a header row."""
    if isinstance(report, SolveReport):
        rows = _solve_rows(report)
    elif isinstance(report, MuSweep):
        rows = _sweep_rows(report)
    elif isinstance(report, ValidationReport):
        rows = _validation_rows(report)
    elif isinstance(report, ComparisonReport):
        rows = _comparison_rows(report)
    elif isinstance(report, PohozaevReport):
        rows = _pohozaev_rows(report)
    elif isinstance(report, NonexistenceReport):
        rows = _nonexistence_rows(report)
    else:
        raise TypeError(f"no CSV writer for report type {type(report).__name__}")
    _write_rows(path, rows)


def read_csv_rows(path: str | Path) -> list[dict[str, str]]:
    """Convenience reader returning one dict per data row."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
