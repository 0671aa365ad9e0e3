#!/usr/bin/env python3
"""Regenerate the committed result documents under docs/.

Everything here is deterministic (fixed seeds, fixed grids), so reruns are
byte-stable and the acceptance suite can cross-check the committed tables
against freshly computed values.

    python3 scripts/generate_docs.py [--docs-dir docs]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from qev.oracle import oracle_slice, validate_closed_form
from qev.state import QevParams, normalization_constant
from qev.sweep import SweepConfig, run_sweep, sweep_csv_lines
from qev.wigner import (
    PLANES,
    alp_argument,
    closed_form_norm_constant,
    closed_form_reference_constant,
    significant_extrema,
    wigner_slice,
)

SEED = 20240811
N_POINTS = 200
SIGMA_GRID = (0.5, 1.0, 3.0, 5.0)
M_RANGE = range(6)


def validation_matrix():
    for m in M_RANGE:
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                yield QevParams.from_sigma(m, sx, sy)


def _rel_err(value: float) -> str:
    """A relative error, with roundoff-sized ones printed as a bound."""
    return "< 1e-12" if value < 1e-12 else f"{value:.3e}"


def validation_table() -> list[str]:
    lines = [
        "# Closed-form adjudication summary",
        "",
        "Point-by-point comparison of the closed-form Wigner expression",
        "(normalized by its exact constant K_num) against the defining",
        "integral transform of the amplitude, over 200 seeded Gaussian",
        f"phase-space points per configuration (seed {SEED}, relative",
        "tolerance 1e-6, absolute floor 1e-12, momenta capped at 4/sigma_min).",
        "",
        "The m = 0 rows are forced analytically: both sides reduce to the same",
        "product of squeezed-vacuum Gaussians.  For m >= 1 the closed form",
        "disagrees with the transform at order unity; the rows below record",
        "the outcome rather than presume it.  The renormalization ratios",
        "(unit-norm constant over the literal printed constant) are listed for",
        "traceability.  Relative errors below 1e-12 are roundoff, whose digits",
        "vary across platforms, so they print as `< 1e-12`.",
        "",
        "| m | sigma_x | sigma_y | match | mismatch | max rel err | verdict | K_num/K_ref |",
        "|---|---------|---------|-------|----------|-------------|---------|-------------|",
    ]
    worst_m0 = 0.0
    for params in validation_matrix():
        rep = validate_closed_form(params, N_POINTS, seed=SEED)
        verdict = "MATCH" if rep.all_match else "MISMATCH"
        if params.m == 0:
            worst_m0 = max(worst_m0, rep.max_rel_err)
        k_ratio = closed_form_norm_constant(params) / closed_form_reference_constant(params)
        lines.append(
            f"| {params.m} | {params.sigma_x:.3g} | {params.sigma_y:.3g} "
            f"| {rep.n_match} | {rep.n_mismatch} | {_rel_err(rep.max_rel_err)} "
            f"| {verdict} | {k_ratio:.6e} |"
        )
    lines += [
        "",
        f"Worst m = 0 relative error across the grid: {_rel_err(worst_m0)} (tolerance 1e-6).",
        "",
        "Amplitude prefactor: the literal closed-form amplitude constant is not",
        "unit norm either; the unit-norm-to-literal ratio for a few configurations:",
        "",
        "| m | sigma_x | sigma_y | N_num/N_ref |",
        "|---|---------|---------|-------------|",
    ]
    for m, sx, sy in ((0, 1.0, 1.0), (0, 5.0, 3.0), (1, 5.0, 3.0), (3, 5.0, 3.0)):
        _, ratio = normalization_constant(QevParams.from_sigma(m, sx, sy))
        lines.append(f"| {m} | {sx:.3g} | {sy:.3g} | {ratio:.6e} |")
    lines.append("")
    return lines


def classify_t(params, plane, feature):
    names = PLANES[plane]
    coords = {"x": 0.0, "y": 0.0, "p_x": 0.0, "p_y": 0.0}
    coords[names[0]] = feature.u
    coords[names[1]] = feature.v
    return float(alp_argument(params, coords["x"], coords["y"], coords["p_x"], coords["p_y"]))


def structure_section(tag, params, plane, grid) -> list[str]:
    feats = significant_extrema(grid)
    maxima = [f for f in feats if f.kind == "max"]
    minima = [f for f in feats if f.kind == "min"]
    lines = [f"### {tag}: plane {plane}, m={params.m}, sigma=({params.sigma_x:.3g}, {params.sigma_y:.3g})", ""]
    lines.append(f"{len(maxima)} maxima, {len(minima)} minima (significant features; "
                 "raw strict-neighbor counts additionally include sampling artifacts)")
    lines.append("")
    lines.append("| kind | u | v | value | Laguerre argument |")
    lines.append("|------|---|---|-------|-------------------|")
    for f in feats:
        lines.append(f"| {f.kind} | {f.u:+.4f} | {f.v:+.4f} | {f.value:+.4e} | {classify_t(params, plane, f):.3f} |")
    lines.append("")
    return lines


def figure_structure_doc() -> list[str]:
    p3 = QevParams.from_sigma(3, 5.0, 3.0)
    p4 = QevParams.from_sigma(4, 5.0, 3.0)
    lines = [
        "# Slice structure of the Wigner distribution",
        "",
        "Feature census of the 2D slices on the default 257x257 windows",
        "(positions +-4 sigma_max, momenta +-4/sigma_min), for both the",
        "closed-form expression and the transform oracle.  Features are",
        "persistence-filtered extrema (see `qev.wigner.significant_extrema`);",
        "the Laguerre-argument column locates each feature in the closed",
        "form's band structure.",
        "",
        "Expected structure of the closed form at vorticity m on the (x, p_x)",
        "plane: sign-alternating Laguerre bands give m minima with m+1 maxima",
        "for odd m, and an even number of minima with m-1 maxima between them",
        "for even m (the outermost band is faint).  On the (p_x, p_y) plane",
        "the dominant structure is a single pair of elliptic lobes: the cubic",
        "width powers in the momentum maps push the Laguerre argument to",
        "~1.6e2 along a narrow ridge, so the two ridge lobes exceed the",
        "central structure by roughly five orders of magnitude.",
        "",
        "The transform oracle, by contrast, depends on each origin plane only",
        "through one elliptic quadratic, so its slice extrema are concentric",
        "ring features rather than isolated lobes; the censuses below record",
        "that divergence.",
        "",
        "## Closed form",
        "",
    ]
    for plane in ("xy", "pxpy", "xpx"):
        lines += structure_section("closed form", p3, plane, wigner_slice(p3, plane))
    lines += structure_section("closed form", p4, "xpx", wigner_slice(p4, "xpx"))
    lines += ["## Transform oracle", ""]
    for plane in ("xy", "pxpy", "xpx"):
        lines += structure_section("oracle", p3, plane, oracle_slice(p3, plane))
    lines += structure_section("oracle", p4, "xpx", oracle_slice(p4, "xpx"))
    return lines


def sweep_docs(docs: Path) -> list[str]:
    closed = run_sweep(SweepConfig(pipeline="closed-form"))
    oracle = run_sweep(SweepConfig(pipeline="oracle"))
    (docs / "sweep-closed-form.csv").write_text("\n".join(sweep_csv_lines(closed)) + "\n")
    (docs / "sweep-oracle.csv").write_text("\n".join(sweep_csv_lines(oracle)) + "\n")
    lines = [
        "# Entanglement sweep",
        "",
        "Default sweep: zeta_x in [-4, 2], 100 uniform steps, vorticities 0-5,",
        "relation zeta_y = ln(5)/4 + zeta_x/2.  Full CSVs:",
        "[closed form](sweep-closed-form.csv), [oracle](sweep-oracle.csv).",
        "",
        "Outcome: the log-negativity column is identically zero for every",
        "vorticity on both pipelines, so no curve crossing exists and every",
        "adjacent-pair crossing report is NOT_FOUND.",
        "",
        "Why this is forced:",
        "",
        "- m = 0 is an exact product of two single-mode squeezed vacua for",
        "  *every* squeezing relation, so its covariance has a vanishing",
        "  cross block and sits exactly at the separability boundary",
        "  (nu_min = 1/2, E_N = 0).  A nonzero constant m = 0 entanglement",
        "  cannot be reproduced by a covariance-based monotone.",
        "- For m >= 1 the state's covariance has partial-transpose symplectic",
        "  spectrum doubly degenerate at sqrt(2m+1)/2 >= 1/2 (independent of",
        "  both widths), so the Gaussian-approximation monotone is zero as",
        "  well; reports carry the gaussian-approximation label.",
        "- The closed-form pipeline's covariance is a rank-one tilt of the",
        "  Gaussian envelope's, so its cross block has zero determinant and",
        "  its partial transpose equals its physical form: E_N = 0 wherever",
        "  the matrix is physical at all.",
        "",
        f"Crossing reports: {', '.join(c.status for c in closed.crossings)} (closed form); "
        f"{', '.join(c.status for c in oracle.crossings)} (oracle).",
        "No crossing location exists to compare against the reference width 2e-3.",
        "",
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs-dir", type=Path, default=Path(__file__).resolve().parent.parent / "docs")
    args = parser.parse_args(argv)
    docs = args.docs_dir
    docs.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    (docs / "closed-form-validation.md").write_text("\n".join(validation_table()) + "\n")
    print(f"closed-form-validation.md written ({time.perf_counter() - start:.1f}s)")
    (docs / "figure-structure.md").write_text("\n".join(figure_structure_doc()) + "\n")
    print(f"figure-structure.md written ({time.perf_counter() - start:.1f}s)")
    (docs / "entanglement-sweep.md").write_text("\n".join(sweep_docs(docs)) + "\n")
    print(f"entanglement-sweep.md + CSVs written ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
