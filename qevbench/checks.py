"""Output checks: every job's files and printed report against the references.

``check_job`` returns the job's outcome (``completed``, ``known-fault`` or
``failed``) and a list of problems; any problem makes the run incorrect.
Files are parsed from their documented formats, and expected values come
from ``reference``, never from qev or from stored copies of earlier output.

Tolerances (the README gives their sources):
  SLICE_TOL  1e-10 x max|W| on a slice (program vs reference agree to
             3e-14 x max|W|; the CSV's 13 digits round to 5e-13 x |W|)
  POINT_TOL  1e-10 / pi^2 on an oracle point value (|W| <= 1/pi^2)
  M0_TOL     1e-10 relative for closed_value against the product Gaussian
  NORM_TOL, PURITY_TOL, MARGINAL_TOL  1e-8, 1e-6, 1e-6 (qev selftest's)
  COV_TOL    1e-10 x max|S V S| (the routes agree to 3e-15)
  K_TOL      1e-9 relative on the closed form's K_num, plus the unit
             roundoff times the cancellation factor of its integral (the
             program's quadrature is off by at most 6e-15 times that factor)
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

import reference as ref
from jobs import KNOWN_FAULT

SLICE_TOL = 1e-10
POINT_TOL = 1e-10 * ref.INV_PI2
M0_TOL = 1e-10
NORM_TOL = 1e-8
PURITY_TOL = 1e-6
MARGINAL_TOL = 1e-6
COV_TOL = 1e-10
K_TOL = 1e-9
EPS = 2.0**-52

PLANES = {
    "xy": ("x", "y"), "pxpy": ("p_x", "p_y"), "xpx": ("x", "p_x"),
    "ypy": ("y", "p_y"), "xpy": ("x", "p_y"), "ypx": ("y", "p_x"),
}
_FEATURE = re.compile(r"^\s+(max|min) at \(([^,]+), ([^)]+)\) value (\S+)$")
_COUNTS = re.compile(r"^(significant extrema|raw strict extrema): (\d+) maxima, (\d+) minima$")


def _window(state: dict, axis: str) -> tuple[float, float]:
    smax = max(state["sigma_x"], state["sigma_y"])
    smin = min(state["sigma_x"], state["sigma_y"])
    half = 4.0 * smax if axis in ("x", "y") else 4.0 / smin
    return -half, half


def k_tolerance(state: dict) -> float:
    """Relative tolerance on the program's K_num for this state."""
    return K_TOL + EPS * ref.closed_form_condition(state["m"], state["sigma_x"], state["sigma_y"])


def slice_reference(job: dict, n: int = 257):
    """(u, v, values) the slice must hold: values[i, j] at (u_j, v_i)."""
    s = job["state"]
    name_u, name_v = PLANES[job["plane"]]
    u = np.linspace(*_window(s, name_u), n)
    v = np.linspace(*_window(s, name_v), n)
    coords = {"x": 0.0, "y": 0.0, "p_x": 0.0, "p_y": 0.0}
    coords[name_u] = u[None, :]
    coords[name_v] = v[:, None]
    args = (coords["x"], coords["y"], coords["p_x"], coords["p_y"])
    if job["pipeline"] == "oracle":
        values = ref.exact_wigner(s["m"], s["sigma_x"], s["sigma_y"], s["sign"], *args)
    else:
        values = ref.closed_form_value(s["m"], s["sigma_x"], s["sigma_y"], *args)
    return u, v, np.broadcast_to(values, (n, n))


def _read_text(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _meta(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        if line.startswith("# ") and "=" in line and " " not in line[2:].partition("=")[0]:
            key, _, value = line[2:].partition("=")
            out[key] = value
    return out


def _axes(lines: list[str]) -> dict[str, tuple[float, float, int]]:
    axes = {}
    for line in lines:
        for name in ("axis_u", "axis_v"):
            if line.startswith(f"# {name} "):
                parts = dict(item.split("=") for item in line.split()[2:])
                axes[name] = (float(parts["min"]), float(parts["max"]), int(parts["count"]))
    return axes


def _read_slice(job: dict, path: str, problems: list[str]):
    """CSV values, or (PGM pixels, value_min, value_max); None when malformed."""
    if job["format"] == "csv":
        lines = _read_text(path)
        header = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if line and not line.startswith("#")]
        values = np.array([[float(f) for f in row.split(",")] for row in rows])
    else:
        header = _read_text(path + ".meta")
        with open(path, "rb") as fh:
            data = fh.read()
        magic, dims, depth, payload = data.split(b"\n", 3)
        nu, nv = (int(t) for t in dims.split())
        if magic != b"P5" or depth != b"65535" or len(payload) != 2 * nu * nv:
            problems.append(f"{job['id']}: malformed PGM header {magic!r} {dims!r} {depth!r}")
            return None
        values = np.frombuffer(payload, dtype=">u2").reshape(nv, nu).astype(np.float64)
    meta = _meta(header)
    if meta.get("pipeline") != job["pipeline"]:
        problems.append(f"{job['id']}: pipeline {meta.get('pipeline')!r}, expected {job['pipeline']!r}")
    axes = _axes(header)
    for name, axis in (("axis_u", PLANES[job["plane"]][0]), ("axis_v", PLANES[job["plane"]][1])):
        lo, hi = _window(job["state"], axis)
        got = axes.get(name)
        if got is None or got[2] != 257 or not (math.isclose(got[0], lo, rel_tol=1e-11) and math.isclose(got[1], hi, rel_tol=1e-11)):
            problems.append(f"{job['id']}: {name} {got}, expected ({lo}, {hi}, 257)")
    if values.shape != (257, 257):
        problems.append(f"{job['id']}: grid shape {values.shape}, expected (257, 257)")
        return None
    if job["format"] == "pgm":
        return values, float(meta["value_min"]), float(meta["value_max"])
    return values


def check_slice(job: dict, record: dict, problems: list[str]) -> None:
    u, v, expected = slice_reference(job)
    rel = SLICE_TOL if job["pipeline"] == "oracle" else SLICE_TOL + k_tolerance(job["state"])
    tol = rel * float(np.max(np.abs(expected)))
    stored = _read_slice(job, job["out"], problems)
    if stored is None:
        return
    if job["format"] == "csv":
        err = float(np.max(np.abs(stored - expected)))
        if err > tol:
            problems.append(f"{job['id']}: slice off the reference by {err:.3e} (> {tol:.3e})")
    else:
        pixels, lo, hi = stored
        if abs(lo - expected.min()) > tol or abs(hi - expected.max()) > tol:
            problems.append(f"{job['id']}: PGM bounds ({lo}, {hi}) vs reference ({expected.min()}, {expected.max()})")
        want = np.round((expected - lo) / (hi - lo) * 65535.0)
        off = float(np.max(np.abs(pixels - want)))
        if off > 1.0:
            problems.append(f"{job['id']}: PGM pixels off the reference by {off:.0f} counts")
    _check_census(job, record["stdout"], u, v, expected, tol, problems)


def _check_census(job, stdout, u, v, expected, tol, problems) -> None:
    """Every reported extremum is a real local extremum of the reference."""
    counts, features = {}, []
    for line in stdout.splitlines():
        if (match := _COUNTS.match(line)) is not None:
            counts[match.group(1)] = (int(match.group(2)), int(match.group(3)))
        elif (match := _FEATURE.match(line)) is not None:
            features.append((match.group(1), float(match.group(2)), float(match.group(3)), float(match.group(4))))
    sig = counts.get("significant extrema")
    raw = counts.get("raw strict extrema")
    if sig is None or raw is None:
        problems.append(f"{job['id']}: census lines missing from the report")
        return
    kinds = (sum(f[0] == "max" for f in features), sum(f[0] == "min" for f in features))
    if kinds != sig:
        problems.append(f"{job['id']}: census counts {sig} do not match the {len(features)} listed features")
    if job["state"]["m"] == 0 and (sig != (1, 0) or [f[:3] for f in features] != [("max", 0.0, 0.0)]):
        problems.append(f"{job['id']}: m = 0 census must be one maximum at the origin, got {features}")
    for kind, fu, fv, value in features:
        j = int(np.argmin(np.abs(u - fu)))
        i = int(np.argmin(np.abs(v - fv)))
        ref_value = expected[i, j]
        where = f"{job['id']}: census {kind} at ({fu}, {fv})"
        if not (0 < i < len(v) - 1 and 0 < j < len(u) - 1):
            problems.append(f"{where} is not interior")
            continue
        if abs(u[j] - fu) > 1e-9 * (u[-1] - u[0]) or abs(v[i] - fv) > 1e-9 * (v[-1] - v[0]):
            problems.append(f"{where} is not a grid node")
        if abs(value - ref_value) > tol:
            problems.append(f"{where} has value {value}, reference {ref_value}")
        block = expected[i - 1 : i + 2, j - 1 : j + 2]
        extreme = block.max() if kind == "max" else block.min()
        if abs(extreme - ref_value) > tol:
            problems.append(f"{where} is not a local {kind} of the reference")


def check_validation(job: dict, record: dict, problems: list[str]) -> None:
    lines = _read_text(job["out"])
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    s = job["state"]
    name = job["id"]
    if not summary.get("summary") or summary["seed"] != job["seed"] or summary["m"] != s["m"] or summary["sign"] != s["sign"]:
        problems.append(f"{name}: summary record does not describe the job: {lines[-1][:200]}")
    if len(records) != job["n_points"] or summary["n_points"] != job["n_points"]:
        problems.append(f"{name}: {len(records)} records, expected {job['n_points']}")
        return
    pts = np.array([[r["x"], r["y"], r["p_x"], r["p_y"]] for r in records])
    oracle = np.array([r["oracle_value"] for r in records])
    closed = np.array([r["closed_value"] for r in records])
    exact = ref.exact_wigner(s["m"], s["sigma_x"], s["sigma_y"], s["sign"], *pts.T)
    err = float(np.max(np.abs(oracle - exact)))
    if err > POINT_TOL:
        problems.append(f"{name}: oracle_value off the exact W by {err:.3e} (> {POINT_TOL:.3e})")
    printed = ref.closed_form_value(s["m"], s["sigma_x"], s["sigma_y"], *pts.T)
    err = float(np.max(np.abs(closed - printed)))
    if err > (SLICE_TOL + k_tolerance(s)) * float(np.max(np.abs(printed))):
        problems.append(f"{name}: closed_value off the printed expression by {err:.3e}")
    if s["m"] == 0:
        gauss = ref.product_gaussian(s["sigma_x"], s["sigma_y"], *pts.T)
        if np.any(np.abs(closed - gauss) > M0_TOL * np.abs(gauss)):
            problems.append(f"{name}: m = 0 closed_value is not the product Gaussian")
    n_match = 0
    for r in records:
        abs_err = abs(r["closed_value"] - r["oracle_value"])
        rel_err = abs_err / abs(r["oracle_value"]) if r["oracle_value"] != 0.0 else (0.0 if abs_err == 0.0 else math.inf)
        verdict = "MATCH" if (rel_err <= summary["tol"] or abs_err <= summary["abs_floor"]) else "MISMATCH"
        n_match += verdict == "MATCH"
        if (r["abs_err"], r["rel_err"], r["verdict"]) != (abs_err, rel_err, verdict):
            problems.append(f"{name}: record {r['index']} reports {r['verdict']} / {r['abs_err']} / {r['rel_err']}, recomputed {verdict} / {abs_err} / {rel_err}")
    if s["m"] == 0 and n_match != len(records):
        problems.append(f"{name}: m = 0 must be all MATCH, got {n_match}/{len(records)}")
    if (summary["n_match"], summary["n_mismatch"]) != (n_match, len(records) - n_match):
        problems.append(f"{name}: summary counts {summary['n_match']}/{summary['n_mismatch']}, recomputed {n_match}")
    if record["rc"] != (0 if n_match == len(records) else 3):
        problems.append(f"{name}: exit code {record['rc']} with {len(records) - n_match} mismatches")


def check_sweep(job: dict, record: dict, problems: list[str], partial: bool = False) -> None:
    """E_N is 0 everywhere: the PT spectrum sqrt(2m+1)/2 never drops below 1/2."""
    name = job["id"]
    lines = _read_text(job["out"])
    meta = _meta(lines)
    want_meta = {"pipeline": job["pipeline"], "m_list": ",".join(str(m) for m in job["m_list"]),
                 "sign": f"{job['sign']:+d}", "n_steps": str(job["steps"])}
    for key, value in want_meta.items():
        if meta.get(key) != value:
            problems.append(f"{name}: header {key}={meta.get(key)!r}, expected {value!r}")
    header = ",".join(["zeta_x", "sigma_x"] + [f"E_N_m{m}" for m in job["m_list"]])
    if header not in lines:
        problems.append(f"{name}: column header missing")
        return
    body = lines[lines.index(header) + 1 :]
    rows = [line for line in body if line and not line.startswith("#") and not line.startswith("FAILED,")]
    zeta = np.linspace(job["zeta_min"], job["zeta_max"], job["steps"])
    if not partial and len(rows) != job["steps"]:
        problems.append(f"{name}: {len(rows)} rows, expected {job['steps']}")
    for i, row in enumerate(rows[: job["steps"]]):
        fields = [float(f) for f in row.split(",")]
        if abs(fields[0] - zeta[i]) > 1e-11 * max(1.0, abs(zeta[i])) or not math.isclose(fields[1], math.exp(2 * zeta[i]), rel_tol=1e-11):
            problems.append(f"{name}: row {i} at zeta_x={fields[0]}, expected {zeta[i]}")
        if any(f != 0.0 for f in fields[2:]):
            problems.append(f"{name}: row {i} has non-zero E_N {fields[2:]}")
    if partial:
        return
    crossings = [line for line in body if line.startswith("# crossing ")]
    pairs = list(zip(job["m_list"][:-1], job["m_list"][1:]))
    want = [f"# crossing m_low={a} m_high={b} status=NOT_FOUND" for a, b in pairs]
    if crossings != want:
        problems.append(f"{name}: crossing reports {crossings}, expected NOT_FOUND for {pairs}")
    if f"sweep complete: {job['steps']} points" not in record["stdout"]:
        problems.append(f"{name}: completion line missing from the report")


def check_invariants(job: dict, problems: list[str]) -> None:
    with open(job["out"]) as fh:
        results = json.load(fh)
    if len(results) != len(job["states"]):
        problems.append(f"{job['id']}: {len(results)} results for {len(job['states'])} states")
    for s, got in zip(job["states"], results):
        _check_state_invariants(f"{job['id']} m={s['m']}", s, got, problems)


def _check_state_invariants(name: str, s: dict, got: dict, problems: list[str]) -> None:
    if abs(got["norm"] - 1.0) > NORM_TOL:
        problems.append(f"{name}: norm {got['norm']!r} is not 1 within {NORM_TOL}")
    if abs(got["purity"] - 1.0) > PURITY_TOL:
        problems.append(f"{name}: purity {got['purity']!r} is not 1 within {PURITY_TOL}")
    if not got["marginal_deviation"] <= MARGINAL_TOL:
        problems.append(f"{name}: marginal deviation {got['marginal_deviation']!r} > {MARGINAL_TOL}")
    want = ref.exact_covariance(s["m"], s["sigma_x"], s["sigma_y"], s["sign"])
    err = float(np.max(np.abs(np.array(got["covariance"]) - want)))
    if err > COV_TOL * float(np.max(np.abs(want))):
        problems.append(f"{name}: wigner4d covariance off S V S by {err:.3e}")
    k_ref = ref.closed_form_constant(s["m"], s["sigma_x"], s["sigma_y"])
    if not math.isclose(got["closed_form_k_num"], k_ref, rel_tol=k_tolerance(s)):
        problems.append(f"{name}: closed-form K_num {got['closed_form_k_num']!r}, eta moments give {k_ref!r}")


def check_job(job: dict, record: dict, out_dir: str) -> tuple[str, list[str]]:
    """(outcome, problems) of one job whose files sit in ``out_dir``."""
    problems: list[str] = []
    job = dict(job, out=os.path.join(out_dir, job["out"]))
    command = job.get("command", "invariants")
    accepted = (0, 3) if command == "validate" else (0,)
    if record["error"] is not None or record["rc"] not in accepted:
        if job.get("known_fault") and record["rc"] == 2 and KNOWN_FAULT in record["stderr"]:
            check_sweep(job, record, problems, partial=True)
            if not _read_text(job["out"])[-1].startswith("FAILED,"):
                problems.append(f"{job['id']}: failed sweep CSV lacks its FAILED sentinel")
            return "known-fault", problems
        reason = record["error"] or f"exit {record['rc']}: {record['stderr'].strip()[:300]}"
        return "failed", [f"{job['id']}: unexpected failure ({reason})"]
    try:
        if command == "slice":
            check_slice(job, record, problems)
        elif command == "validate":
            check_validation(job, record, problems)
        elif command == "sweep":
            check_sweep(job, record, problems)
        else:
            check_invariants(job, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"{job['id']}: output unreadable ({type(exc).__name__}: {exc})")
    return "completed", problems
