"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test prints one pass/fail line (run ``pytest -s tests/test_acceptance.py``
to watch them); a test that reaches its print has met the criterion.
Criteria that are experiments rather than guarantees (the closed-form
adjudication at m >= 1, the crossing search) assert that the classification
machinery ran and produced the required records, not a particular outcome.
"""

import importlib.util
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qev import entanglement as ent
from qev import numerics, oracle, state, wigner
from qev.cli import main as cli_main
from qev.sweep import SweepConfig, run_sweep, sweep_csv_lines

REPO = Path(__file__).resolve().parent.parent
SIGMA_GRID = (0.5, 1.0, 3.0, 5.0)
SEED = 20240811


def _announce(num, title, detail):
    print(f"CRITERION {num} ({title}): PASS - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_special_functions():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    from test_numerics import explicit_laguerre_half

    x = rng.uniform(-50, 50, size=100)
    for m in range(6):
        got = numerics.laguerre_assoc_half(m, x)
        want = explicit_laguerre_half(m, x)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12
    for m in range(11):
        assert abs(numerics.gamma_half_integer(m) - math.gamma(m + 0.5)) <= 1e-15 * math.gamma(m + 0.5)
    for order in (5, 16, 64):
        rule = numerics.gauss_hermite_rule(order)
        for two_k in range(0, 2 * order - 1, 2):
            want = numerics.gamma_half_integer(two_k // 2)
            got = float(np.sum(rule.weights * rule.nodes**two_k))
            assert abs(got - want) <= 1e-12 * want
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, "special functions", f"laguerre/gamma/quadrature exact, {elapsed:.2f}s < 1s")


def test_criterion_02_state_suite():
    start = time.perf_counter()
    rule = numerics.gauss_hermite_rule(64)
    corr = np.exp(rule.nodes[:, None] ** 2 + rule.nodes[None, :] ** 2)
    rng = np.random.default_rng(SEED)
    worst_norm = 0.0
    for m in range(9):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                x = sx * rule.nodes[:, None]
                y = sy * rule.nodes[None, :]
                w2 = rule.weights[:, None] * rule.weights[None, :] * sx * sy
                total = float(np.sum(w2 * corr * state.intensity(p, x, y)))
                worst_norm = max(worst_norm, abs(total - 1.0))
                assert abs(total - 1.0) <= 1e-8
                if m:
                    assert state.winding_number(p) == m
    p_neg = state.QevParams.from_sigma(4, 3.0, 0.5, sign=-1)
    assert state.winding_number(p_neg) == -4

    # sigma-swap symmetry, pointwise
    pts = rng.uniform(-8, 8, size=(64, 2))
    for m in (0, 2, 5, 8):
        p = state.QevParams.from_sigma(m, 5.0, 3.0)
        a = state.intensity(p, pts[:, 0], pts[:, 1])
        b = state.intensity(p.swapped(), pts[:, 1], pts[:, 0])
        assert np.max(np.abs(a - b)) <= 1e-14

    # gradient vs central differences
    for m in (0, 1, 3, 8):
        p = state.QevParams.from_sigma(m, 5.0, 3.0)
        checked = 0
        while checked < 20:
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-6, 6))
            if abs(state.psi(p, x, y)) < 1e-6:
                continue
            checked += 1
            gx, gy = state.psi_gradient(p, x, y)
            hx, hy = 5e-5, 3e-5
            fx = (state.psi(p, x + hx, y) - state.psi(p, x - hx, y)) / (2 * hx)
            fy = (state.psi(p, x, y + hy) - state.psi(p, x, y - hy)) / (2 * hy)
            scale = max(abs(gx), abs(gy))
            assert abs(gx - fx) / scale <= 1e-6
            assert abs(gy - fy) / scale <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(2, "state suite", f"norm/winding/swap/gradient over 144 configs, {elapsed:.1f}s < 10s")


def test_criterion_03_oracle_suite():
    start = time.perf_counter()
    worst = {"norm": 0.0, "purity": 0.0, "marginal": 0.0, "reality": 0.0}
    rng = np.random.default_rng(SEED)
    for m in range(6):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                worst["norm"] = max(worst["norm"], abs(oracle.wigner_norm(p) - 1.0))
                worst["purity"] = max(worst["purity"], abs(oracle.wigner_purity(p) - 1.0))
                worst["marginal"] = max(worst["marginal"], oracle.marginal_check(p).max_abs_deviation)
                scales = np.array([sx, sy, 1 / sx, 1 / sy])
                pts = rng.normal(size=(6, 4)) * scales
                cap = oracle.MOMENTUM_CAP_SIGMA / min(sx, sy)
                pts[:, 2:] = np.clip(pts[:, 2:], -cap, cap)
                vals = oracle.transform_points(p, pts, check_reality=False)
                worst["reality"] = max(worst["reality"], float(np.max(np.abs(vals.imag))))
    assert worst["norm"] <= 1e-8
    assert worst["purity"] <= 1e-6
    assert worst["marginal"] <= 1e-6
    assert worst["reality"] <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(3, "oracle suite",
              f"norm {worst['norm']:.1e}, purity {worst['purity']:.1e}, "
              f"marginal {worst['marginal']:.1e}, reality {worst['reality']:.1e}, {elapsed:.1f}s < 60s")


def test_criterion_04_closed_form_adjudication():
    results = {}
    for m in range(6):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                rep = oracle.validate_closed_form(p, 200, seed=SEED, tol=1e-6)
                assert rep.n_match + rep.n_mismatch == 200
                results[(m, sx, sy)] = rep
                if m == 0:
                    # analytically forced: the Gaussian sector must agree
                    assert rep.all_match, f"m=0 sigma=({sx},{sy}) had mismatches"

    # every configuration classified, and the summary table ships in docs
    doc = REPO / "docs" / "closed-form-validation.md"
    assert doc.exists(), "validation summary document missing"
    text = doc.read_text()
    for (m, sx, sy), rep in results.items():
        verdict = "MATCH" if rep.all_match else "MISMATCH"
        pattern = rf"^\|\s*{m}\s*\|\s*{sx:.3g}\s*\|\s*{sy:.3g}\s*\|\s*{rep.n_match}\s*\|\s*{rep.n_mismatch}\s*\|.*\|\s*{verdict}\s*\|"
        assert re.search(pattern, text, flags=re.M), f"doc row missing/stale for {(m, sx, sy)}"
    n_mis = sum(1 for rep in results.values() if not rep.all_match)
    _announce(4, "closed-form adjudication",
              f"m=0 control 16/16 all-MATCH; {n_mis}/96 configurations MISMATCH "
              "(recorded in docs/closed-form-validation.md)")


def test_criterion_05_entanglement_calibration(tmp_path):
    vac = ent.log_negativity(ent.vacuum_covariance())
    assert (vac.nu_plus, vac.nu_minus) == (0.5, 0.5)
    assert vac.log_negativity == 0.0 and vac.separable

    for r in (0.25, 0.5, 1.0, 2.0):
        rep = ent.log_negativity(ent.tmsv_covariance(r), pipeline="fixture")
        assert abs(rep.log_negativity - 2.0 * r) <= 1e-12

    zx = -0.7
    pairs = [(1.0, math.sqrt(5.0)), (0.5, 3.0), (5.0, 5.0),
             (math.exp(2 * zx), math.exp(2 * (math.log(5.0) / 4.0 + zx / 2.0)))]
    for sx, sy in pairs:
        cov = ent.second_moments(state.QevParams.from_sigma(0, sx, sy))
        rep = ent.log_negativity(cov)
        assert float(np.max(np.abs(cov.mu))) <= 1e-9
        assert rep.log_negativity <= 1e-10
        assert abs(cov.det_sigma() - 1.0 / 16.0) <= 1e-9

    # the divergence from a nonzero constant m=0 curve is a required header
    # annotation of every sweep CSV that includes m=0
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--zeta-min", "-1", "--zeta-max", "0", "--steps", "3",
                     "--m-list", "0,1", "--out", str(out)])
    assert code == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert any("divergence" in l and "m=0" in l for l in header)
    _announce(5, "entanglement calibration",
              "vacuum exact, TMSV within 1e-12, m=0 product states exact, divergence annotated")


def test_criterion_06_dual_method_moments():
    start = time.perf_counter()
    worst = 0.0
    for m in range(6):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                a = ent.second_moments(p, method="wavefunction").sigma
                b = ent.second_moments(p, method="wigner4d").sigma
                scale = np.abs(a) + 1e-3 * np.sqrt(np.outer(np.diag(a), np.diag(a)))
                worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(6, "dual-method moments", f"max entrywise rel dev {worst:.2e} over 96 configs, {elapsed:.1f}s < 120s")


def _feature_census(params, grid):
    feats = wigner.significant_extrema(grid)
    names = wigner.PLANES[grid.plane]

    def t_of(f):
        coords = {"x": 0.0, "y": 0.0, "p_x": 0.0, "p_y": 0.0}
        coords[names[0]] = f.u
        coords[names[1]] = f.v
        return float(wigner.alp_argument(params, coords["x"], coords["y"], coords["p_x"], coords["p_y"]))

    maxima = [f for f in feats if f.kind == "max"]
    minima = [f for f in feats if f.kind == "min"]
    interior = None
    if minima:
        t_edge = max(t_of(f) for f in minima)
        interior = [f for f in maxima if t_of(f) < t_edge]
    return feats, maxima, minima, interior


def test_criterion_07_figure_structure(tmp_path):
    p3 = state.QevParams.from_sigma(3, 5.0, 3.0)
    p4 = state.QevParams.from_sigma(4, 5.0, 3.0)
    record = {}

    # --- closed-form pipeline (asserted) ---
    _, maxima, minima, _ = _feature_census(p3, wigner.wigner_slice(p3, "xpx"))
    record["closed xpx m=3"] = (len(maxima), len(minima))
    assert len(minima) == 3, "odd-m phase-plane slice: minima count must equal m"
    assert len(maxima) == 4, "odd-m phase-plane slice: maxima count must equal m+1"

    _, maxima, minima, _ = _feature_census(p3, wigner.wigner_slice(p3, "pxpy"))
    record["closed pxpy m=3"] = (len(maxima), len(minima))
    assert len(maxima) == 2, "momentum-plane slice must split into two dominant lobes"

    grid_xy = wigner.wigner_slice(p3, "xy")
    feats, _, minima, _ = _feature_census(p3, grid_xy)
    record["closed xy m=3"] = (sum(1 for f in feats if f.kind == "max"), len(minima))
    center = grid_xy.values[grid_xy.axis_v[2] // 2, grid_xy.axis_u[2] // 2]
    assert center < 0.0, "odd-m position slice carries a negative core"
    assert any(f.kind == "min" and f.u == 0.0 and f.v == 0.0 for f in feats), "central null missing"

    _, maxima, minima, interior = _feature_census(p4, wigner.wigner_slice(p4, "xpx"))
    record["closed xpx m=4"] = (len(maxima), len(minima))
    assert len(minima) % 2 == 0 and len(minima) > 0, "even-m slice must carry an even number of minima"
    assert interior is not None and len(interior) == 3, "even-m slice: m-1 maxima between the minima"

    # --- the closed form failed the m>=1 adjudication, so the same checks
    # rerun against oracle slices and both outcomes are recorded ---
    assert not oracle.validate_closed_form(p3, 50, seed=SEED).all_match
    for tag, params, plane in (("oracle xpx m=3", p3, "xpx"), ("oracle pxpy m=3", p3, "pxpy"),
                               ("oracle xy m=3", p3, "xy"), ("oracle xpx m=4", p4, "xpx")):
        _, maxima, minima, _ = _feature_census(params, oracle.oracle_slice(params, plane))
        record[tag] = (len(maxima), len(minima))

    report = tmp_path / "figure-structure-record.json"
    report.write_text(json.dumps({k: {"maxima": v[0], "minima": v[1]} for k, v in record.items()}, indent=2))
    committed = REPO / "docs" / "figure-structure.md"
    assert committed.exists(), "figure-structure record must ship in the docs"
    _announce(7, "figure structure",
              f"closed form: xpx(3min/4max), pxpy(2max), xy central null, m=4(even min/3 interior max); "
              f"oracle censuses recorded: { {k: v for k, v in record.items() if k.startswith('oracle')} }")


def _generate_docs():
    spec = importlib.util.spec_from_file_location("generate_docs", REPO / "scripts" / "generate_docs.py")
    generate_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate_docs)
    return generate_docs


def test_figure_structure_doc_reproduces():
    regenerated = ("\n".join(_generate_docs().figure_structure_doc()) + "\n").encode()
    assert regenerated == (REPO / "docs" / "figure-structure.md").read_bytes()


def test_validation_doc_reproduces():
    regenerated = ("\n".join(_generate_docs().validation_table()) + "\n").encode()
    assert regenerated == (REPO / "docs" / "closed-form-validation.md").read_bytes()


def test_sweep_docs_reproduce(tmp_path):
    regenerated = ("\n".join(_generate_docs().sweep_docs(tmp_path)) + "\n").encode()
    assert regenerated == (REPO / "docs" / "entanglement-sweep.md").read_bytes()
    for name in ("sweep-closed-form.csv", "sweep-oracle.csv"):
        assert (tmp_path / name).read_bytes() == (REPO / "docs" / name).read_bytes(), name


def test_criterion_08_default_sweep(tmp_path):
    start = time.perf_counter()
    result = run_sweep(SweepConfig())  # zeta in [-4, 2], 100 steps, m 0..5, closed form
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert result.failure is None
    assert result.n_completed == 100
    assert len(result.orderings) == 5  # monotone-ordering analysis per adjacent pair
    assert len(result.crossings) == 5
    for crossing in result.crossings:
        assert crossing.status in ("FOUND", "NOT_FOUND", "MULTIPLE")
        if crossing.status != "NOT_FOUND":
            assert crossing.consistency in ("CONSISTENT", "INCONSISTENT")
    lines = sweep_csv_lines(result)
    (tmp_path / "sweep-closed-form.csv").write_text("\n".join(lines) + "\n")
    assert any(l.startswith("# ordering pair") for l in lines)
    assert any(l.startswith("# crossing ") for l in lines)
    assert any("divergence" in l for l in lines)

    # the oracle-pipeline sweep is emitted alongside for the docs
    oracle_doc = REPO / "docs" / "sweep-oracle.csv"
    closed_doc = REPO / "docs" / "sweep-closed-form.csv"
    assert oracle_doc.exists() and closed_doc.exists()
    statuses = ",".join(sorted({c.status for c in result.crossings}))
    _announce(8, "default sweep",
              f"100 points in {elapsed:.1f}s < 30s; crossing status {statuses}; annotated CSV emitted")


def test_criterion_09_determinism(tmp_path):
    jobs = {
        "slice": ["slice", "--m", "2", "--sigma-x", "5", "--sigma-y", "3",
                  "--plane", "xpx", "--n", "65", "--format", "csv"],
        "validate": ["validate", "--m", "1", "--sigma-x", "1", "--sigma-y", "1",
                     "--n-points", "25", "--seed", "9"],
        "entangle": ["entangle", "--m", "2", "--sigma-x", "5", "--sigma-y", "3"],
        "sweep": ["sweep", "--zeta-min", "-1", "--zeta-max", "0", "--steps", "4",
                  "--m-list", "0,1"],
    }
    for name, argv in jobs.items():
        outputs = []
        for threads in (1, 2, 4, 8):
            out = tmp_path / f"{name}-{threads}.out"
            code = cli_main(argv + ["--out", str(out), "--threads", str(threads)])
            assert code in (0, 3)  # validate at m=1 exits 3 by contract
            outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs), f"{name} output varies with threads"
    _announce(9, "determinism", "slice/validate/entangle/sweep byte-identical across threads 1,2,4,8")


def test_criterion_10_selftest_aggregate():
    import io

    start = time.perf_counter()
    buffer = io.StringIO()
    from qev.selftest import run_selftest

    code = run_selftest(stream=buffer)
    elapsed = time.perf_counter() - start
    text = buffer.getvalue()
    assert code == 0, f"selftest failed:\n{text}"
    assert elapsed < 30.0
    n_checks = text.count("PASS")
    _announce(10, "selftest", f"{n_checks} checks green in {elapsed:.1f}s < 30s")
