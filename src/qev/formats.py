"""File formats for the command-line surface: versioned CSV, binary PGM,
and JSON-lines validation reports.

Every writer is deterministic byte-for-byte given identical inputs.  Numeric
fields use fixed scientific formatting with 12 mantissa digits; headers are
``# qev v1`` followed by ``# key=value`` metadata lines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .oracle import ValidationReport
from .wigner import Grid2D

__all__ = [
    "FORMAT_VERSION",
    "fmt",
    "write_grid_csv",
    "read_grid_csv",
    "write_grid_pgm",
    "write_validation_jsonl",
    "read_meta_lines",
]

FORMAT_VERSION = "# qev v1"


def fmt(value: float) -> str:
    return f"{value:.12e}"


def _meta_lines(meta: dict) -> list[str]:
    lines = []
    for key, value in meta.items():
        if isinstance(value, float):
            value = fmt(value)
        lines.append(f"# {key}={value}")
    return lines


def write_grid_csv(path: str | Path, grid: Grid2D, meta: dict | None = None) -> None:
    """Row-major grid CSV: metadata header, then one comma-joined line per row."""
    meta = dict(meta or {})
    lines = [FORMAT_VERSION, "# kind=slice", f"# plane={grid.plane}"]
    lines += [
        f"# axis_u min={fmt(grid.axis_u[0])} max={fmt(grid.axis_u[1])} count={grid.axis_u[2]}",
        f"# axis_v min={fmt(grid.axis_v[0])} max={fmt(grid.axis_v[1])} count={grid.axis_v[2]}",
    ]
    lines += _meta_lines(meta)
    number = "{:.12e}".format  # fmt's format, bound once for the whole grid
    lines += [",".join(map(number, row.tolist())) for row in grid.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_meta_lines(path: str | Path) -> dict:
    """Parse ``# key=value`` metadata from any of the text formats here."""
    meta: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("# ") or "=" not in line:
            continue
        key, _, value = line[2:].partition("=")
        meta[key.strip()] = value.strip()
    return meta


def read_grid_csv(path: str | Path) -> tuple[Grid2D, dict]:
    text = Path(path).read_text().splitlines()
    if not text or text[0] != FORMAT_VERSION:
        raise ConfigError(f"{path}: not a qev v1 file")
    meta: dict[str, str] = {}
    axes = {}
    rows = []
    plane = None
    for line in text[1:]:
        if line.startswith("# "):
            body = line[2:]
            if body.startswith("axis_u ") or body.startswith("axis_v "):
                name, spec = body.split(" ", 1)
                parts = dict(item.split("=") for item in spec.split())
                axes[name] = (float(parts["min"]), float(parts["max"]), int(parts["count"]))
            elif body.startswith("plane="):
                plane = body.split("=", 1)[1]
            elif "=" in body:
                key, _, value = body.partition("=")
                meta[key] = value
        elif line:
            rows.append([float(v) for v in line.split(",")])
    if plane is None or "axis_u" not in axes or "axis_v" not in axes:
        raise ConfigError(f"{path}: missing plane or axis metadata")
    grid = Grid2D(plane=plane, axis_u=axes["axis_u"], axis_v=axes["axis_v"], values=np.array(rows))
    return grid, meta


def write_grid_pgm(path: str | Path, grid: Grid2D, meta: dict | None = None) -> None:
    """Binary 16-bit P5 image of the grid, min-max normalized per grid.

    The normalization bounds and grid metadata go to a ``.meta`` text
    sidecar; the CSV remains the lossless source of truth.
    """
    path = Path(path)
    lo = float(np.min(grid.values))
    hi = float(np.max(grid.values))
    span = hi - lo
    if span == 0.0:
        scaled = np.zeros_like(grid.values, dtype=np.uint16)
    else:
        scaled = np.round((grid.values - lo) / span * 65535.0).astype(np.uint16)
    nv, nu = scaled.shape
    header = f"P5\n{nu} {nv}\n65535\n".encode("ascii")
    payload = scaled.astype(">u2").tobytes()
    path.write_bytes(header + payload)

    side = [FORMAT_VERSION, "# kind=pgm-meta", f"# plane={grid.plane}"]
    side += [
        f"# axis_u min={fmt(grid.axis_u[0])} max={fmt(grid.axis_u[1])} count={grid.axis_u[2]}",
        f"# axis_v min={fmt(grid.axis_v[0])} max={fmt(grid.axis_v[1])} count={grid.axis_v[2]}",
        f"# value_min={fmt(lo)}",
        f"# value_max={fmt(hi)}",
    ]
    side += _meta_lines(dict(meta or {}))
    path.with_suffix(path.suffix + ".meta").write_text("\n".join(side) + "\n")


def write_validation_jsonl(path: str | Path, report: ValidationReport, meta: dict | None = None) -> None:
    """One JSON record per validated point, then one summary record.

    Keys are fixed; floats serialize via their shortest round-trip repr, so
    identical reports produce identical bytes.
    """
    lines = []
    for rec in report.records:
        lines.append(json.dumps({
            "index": rec.index,
            "x": rec.point.x,
            "y": rec.point.y,
            "p_x": rec.point.p_x,
            "p_y": rec.point.p_y,
            "closed_value": rec.closed_value,
            "oracle_value": rec.oracle_value,
            "abs_err": rec.abs_err,
            "rel_err": rec.rel_err,
            "imag_residual": rec.imag_residual,
            "rule_order": rec.rule_order,
            "verdict": rec.verdict,
        }))
    summary = {
        "summary": True,
        "m": report.params.m,
        "zeta_x": report.params.zeta_x,
        "zeta_y": report.params.zeta_y,
        "sign": report.params.sign,
        "seed": report.seed,
        "tol": report.tol,
        "abs_floor": report.abs_floor,
        "n_points": len(report.records),
        "n_match": report.n_match,
        "n_mismatch": report.n_mismatch,
        "max_rel_err": report.max_rel_err,
        "rule_orders": list(report.rule_orders),
        "convergence_delta": report.convergence_delta,
    }
    if meta:
        summary.update(meta)
    lines.append(json.dumps(summary))
    Path(path).write_text("\n".join(lines) + "\n")
