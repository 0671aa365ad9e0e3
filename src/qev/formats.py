"""File formats for the command-line surface: versioned CSV, binary PGM,
and JSON-lines validation reports.

Every writer is deterministic byte-for-byte given identical inputs.  Numeric
fields use fixed scientific formatting with 12 mantissa digits; headers are
``# qev v1`` followed by ``# key=value`` metadata lines.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .oracle import ValidationReport
from .wigner import Grid2D

__all__ = [
    "FORMAT_VERSION",
    "fmt",
    "write_grid_csv",
    "write_grid_pgm",
    "write_validation_jsonl",
]

FORMAT_VERSION = "# qev v1"

# write_grid_csv encodes one block of rows at a time, taking each value to
# need CSV_VALUE_BYTES of working arrays (160 measured).
CSV_BLOCK_BYTES = 1 << 20
CSV_VALUE_BYTES = 256

# "%.12e" of |v| = q 10**(k-12) takes q = round(t), t = |v| 10**(12-k) exact.
# s = fl(|v| * scale) misses t by at most ulp(s)/2 <= 2**-10 (s < 1e13 < 2**44)
# plus the correctly rounded scale's 1e13 * 2**-53 < 1.2e-3: 2.2e-3 < 2**-8.
_TIE_WINDOW = 2.0**-8
_FIELD = np.frombuffer(b"-0.000000000000e+000,", dtype=np.uint8)
# _DIGITS4[n]: the four ASCII digits of n < 10**4, first in the lowest byte.
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_DIGITS4 = (_ASCII[:, None, None, None] | _ASCII[:, None, None] << 8 | _ASCII[:, None] << 16 | _ASCII << 24).astype("<u4").ravel()


def fmt(value: float) -> str:
    return f"{value:.12e}"


@functools.cache
def _scales() -> np.ndarray:
    """10**(12-k) at k + 324 for k = -324..308, parsed so correctly rounded
    (0.3 ms); inf below k = -296, which sends subnormals to ``fmt``."""
    return np.array([float(f"1e{12 - k}") for k in range(-324, 309)])


def _encode_rows(block: np.ndarray) -> bytes:
    """``fmt`` of every value, comma-joined, each row ending in a newline."""
    v = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.where(a > 0.0, a, 1.0))).astype(np.int64)
        s = a * _scales()[k + 324]
        fast = (s >= 1e12) & (s < 1e13) & (np.abs(s - np.floor(s) - 0.5) > _TIE_WINDOW)
        q = np.where(fast, np.rint(s), 0.0).astype(np.int64)
    slow = np.flatnonzero(~fast)  # zeros, near-ties, subnormals, k off by one
    texts = [fmt(x) for x in a[slow].tolist()]  # "d.dddddddddddde+XX"
    q[slow] = [int(t[0] + t[2:14]) for t in texts]
    k[slow] = [int(t[15:]) for t in texts]
    roll = q == 10**13  # 9.9999999999995e+N -> 1.000000000000e+(N+1)
    q, k = np.where(roll, 10**12, q), k + roll

    buf = np.empty((v.size, _FIELD.size), dtype=np.uint8)
    buf[:] = _FIELD
    lead, rest = np.divmod(q, 10**12)
    buf[:, 1] = lead + ord("0")
    buf[:, 3:15] = _DIGITS4[np.stack([rest // 10**8, rest // 10**4 % 10**4, rest % 10**4], axis=1)].view(np.uint8)
    buf[:, 16:20] = _DIGITS4[np.abs(k)].view(np.uint8).reshape(-1, 4)
    buf[:, 16] = np.where(k < 0, ord("-"), ord("+"))
    buf.reshape(block.shape[0], -1, _FIELD.size)[:, -1, -1] = ord("\n")
    keep = np.ones(buf.shape, dtype=bool)  # drop the unused sign and hundreds
    keep[:, 0] = np.signbit(v)
    keep[:, 17] = np.abs(k) >= 100
    return buf[keep].tobytes()


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}={fmt(value) if isinstance(value, float) else value}" for key, value in meta.items()]


def _grid_header(kind: str, grid: Grid2D, *fields: dict) -> bytes:
    """The ``# qev v1`` text header of the grid CSV and the PGM sidecar."""
    lines = [FORMAT_VERSION, f"# kind={kind}", f"# plane={grid.plane}"]
    for name, (lo, hi, count) in (("axis_u", grid.axis_u), ("axis_v", grid.axis_v)):
        lines.append(f"# {name} min={fmt(lo)} max={fmt(hi)} count={count}")
    for meta in fields:
        lines += _meta_lines(meta or {})
    return ("\n".join(lines) + "\n").encode()


def write_grid_csv(path: str | Path, grid: Grid2D, meta: dict | None = None) -> None:
    """Row-major grid CSV: metadata header, then one comma-joined line per row.

    Fields are the bytes of ``fmt``, encoded and written a block of rows at a
    time so the whole text never sits in memory.
    """
    values = grid.values
    rows = max(1, CSV_BLOCK_BYTES // (CSV_VALUE_BYTES * values.shape[1]))
    with open(path, "wb") as out:
        out.write(_grid_header("slice", grid, meta))
        for start in range(0, values.shape[0], rows):
            out.write(_encode_rows(values[start:start + rows]))


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
    path.with_suffix(path.suffix + ".meta").write_bytes(_grid_header("pgm-meta", grid, {"value_min": lo, "value_max": hi}, meta))


def write_validation_jsonl(path: str | Path, report: ValidationReport, meta: dict | None = None) -> None:
    """One JSON record per validated point, then one summary record.

    Keys are fixed; floats serialize via their shortest round-trip repr, so
    identical reports produce identical bytes.
    """
    lines = []
    for rec in report.records:
        record = {"index": rec.index, **vars(rec.point), **vars(rec)}  # the point's x, y, p_x, p_y after index
        del record["point"]
        lines.append(json.dumps(record))
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
