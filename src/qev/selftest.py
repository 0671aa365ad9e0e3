"""Invariant suite: every module's properties as one pass/fail table.

Checks mirror the acceptance gates (special functions, state, oracle,
closed-form adjudication, entanglement calibration, dual-method moments).
``tol_scale`` multiplies every tolerance, so a scale of zero must fail the
whole table (harness sanity).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import entanglement as ent
from . import numerics, oracle, state, wigner

__all__ = ["CheckResult", "run_selftest", "CHECKS"]

SIGMA_GRID = (0.5, 1.0, 3.0, 5.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _laguerre_half_coefficients(m: int) -> list[Fraction]:
    """Exact coefficients a_k of L_m^a(x) = sum_k a_k x^k, a = -1/2.

    a_k = (-1)^k C(m+a, m-k) / k!, with the half-integer binomials
    accumulated as exact fractions.
    """
    out = []
    for k in range(m + 1):
        binom = Fraction(1)
        for j in range(1, m - k + 1):
            binom *= Fraction(2 * (m - j) + 1, 2 * j)  # (m - 1/2 - j + 1)/j
        out.append(Fraction((-1) ** k, math.factorial(k)) * binom)
    return out


def _explicit_laguerre_half(m: int, x: np.ndarray) -> np.ndarray:
    """Independent oracle: the explicit series with exact rational coefficients."""
    total = np.zeros_like(x)
    for k, coeff in enumerate(_laguerre_half_coefficients(m)):
        total = total + float(coeff) * x**k
    return total


def check_laguerre_recurrence(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    x = rng.uniform(-50.0, 50.0, size=100)
    worst = 0.0
    for m in range(6):
        got = numerics.laguerre_assoc_half(m, x)
        want = _explicit_laguerre_half(m, x)
        scale = np.maximum(np.abs(want), 1.0)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    return worst <= 1e-12 * tol_scale, f"max rel err {worst:.2e}"


def check_gamma_half_integer(tol_scale: float) -> tuple[bool, str]:
    worst = 0.0
    for m in range(11):
        got = numerics.gamma_half_integer(m)
        want = math.gamma(m + 0.5)
        worst = max(worst, abs(got - want) / want)
    return worst <= 1e-15 * tol_scale, f"max rel err {worst:.2e}"


def check_gauss_hermite(tol_scale: float) -> tuple[bool, str]:
    worst = 0.0
    for order in (5, 16, 64):
        rule = numerics.gauss_hermite_rule(order)
        for two_k in range(0, 2 * order - 1, 2):
            k = two_k // 2
            want = numerics.gamma_half_integer(k)  # (2k-1)!!/2^k sqrt(pi)
            got = float(np.sum(rule.weights * rule.nodes**two_k))
            worst = max(worst, abs(got - want) / want)
        if abs(float(rule.weights.sum()) - math.sqrt(math.pi)) > 1e-12 * tol_scale:
            return False, f"weight sum off at order {order}"
        if not np.array_equal(rule.nodes, -rule.nodes[::-1]):
            return False, f"nodes not exactly antisymmetric at order {order}"
    return worst <= 1e-12 * tol_scale, f"max monomial rel err {worst:.2e}"


def check_state_normalization(tol_scale: float) -> tuple[bool, str]:
    rule = numerics.gauss_hermite_rule(64)
    worst = 0.0
    for m in range(9):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                x = sx * rule.nodes[:, None]
                y = sy * rule.nodes[None, :]
                w2 = rule.weights[:, None] * rule.weights[None, :] * sx * sy
                corr = np.exp(rule.nodes[:, None] ** 2 + rule.nodes[None, :] ** 2)
                total = float(np.sum(w2 * corr * state.intensity(p, x, y)))
                worst = max(worst, abs(total - 1.0))
    return worst <= 1e-8 * tol_scale, f"max |norm - 1| {worst:.2e}"


def check_state_winding(tol_scale: float) -> tuple[bool, str]:
    if tol_scale <= 0:
        return False, "tolerance injected to zero"
    for m in range(9):
        for sx, sy in ((0.5, 5.0), (1.0, 1.0), (3.0, 0.5)):
            for sign in (+1, -1):
                p = state.QevParams.from_sigma(m, sx, sy, sign=sign)
                expected = sign * m if m > 0 else 0
                if state.winding_number(p) != expected:
                    return False, f"winding wrong at m={m}, sign={sign}"
    return True, "winding = sign*m for m in 0..8"


def check_state_swap_and_parity(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6.0, 6.0, size=(64, 2))
    worst = 0.0
    for m in (0, 1, 3, 5):
        for sx, sy in ((0.5, 3.0), (5.0, 3.0), (1.0, 1.0)):
            p = state.QevParams.from_sigma(m, sx, sy)
            q = p.swapped()
            a = state.intensity(p, pts[:, 0], pts[:, 1])
            b = state.intensity(q, pts[:, 1], pts[:, 0])
            c = state.intensity(p, -pts[:, 0], -pts[:, 1])
            worst = max(worst, float(np.max(np.abs(a - b))), float(np.max(np.abs(a - c))))
    return worst <= 1e-14 * tol_scale, f"max swap/parity dev {worst:.2e}"


def check_state_gradient(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in (0, 1, 2, 4):
        for sx, sy in ((1.0, 1.0), (5.0, 3.0)):
            p = state.QevParams.from_sigma(m, sx, sy)
            count = 0
            while count < 20:
                x = float(rng.uniform(-2 * sx, 2 * sx))
                y = float(rng.uniform(-2 * sy, 2 * sy))
                if abs(state.psi(p, x, y)) < 1e-6:
                    continue
                count += 1
                hx, hy = 1e-5 * sx, 1e-5 * sy
                gx, gy = state.psi_gradient(p, x, y)
                fx = (state.psi(p, x + hx, y) - state.psi(p, x - hx, y)) / (2 * hx)
                fy = (state.psi(p, x, y + hy) - state.psi(p, x, y - hy)) / (2 * hy)
                scale = max(abs(gx), abs(gy), 1e-300)
                worst = max(worst, abs(gx - fx) / scale, abs(gy - fy) / scale)
    return worst <= 1e-6 * tol_scale, f"max FD rel dev {worst:.2e}"


def _oracle_config_grid() -> list[state.QevParams]:
    out = []
    for m in range(6):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                out.append(state.QevParams.from_sigma(m, sx, sy))
    return out


def check_oracle_norm_purity(tol_scale: float) -> tuple[bool, str]:
    worst_n, worst_p = 0.0, 0.0
    for p in _oracle_config_grid():
        worst_n = max(worst_n, abs(oracle.wigner_norm(p) - 1.0))
        worst_p = max(worst_p, abs(oracle.wigner_purity(p) - 1.0))
    ok = worst_n <= 1e-8 * tol_scale and worst_p <= 1e-6 * tol_scale
    return ok, f"|norm-1| {worst_n:.2e}, |purity-1| {worst_p:.2e}"


def check_oracle_marginal(tol_scale: float) -> tuple[bool, str]:
    worst = 0.0
    for p in _oracle_config_grid():
        worst = max(worst, oracle.marginal_check(p).max_abs_deviation)
    return worst <= 1e-6 * tol_scale, f"max marginal dev {worst:.2e}"


def check_oracle_reality(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    worst_imag, worst_dev = 0.0, 0.0
    for p in _oracle_config_grid()[::7]:
        scales = np.array([p.sigma_x, p.sigma_y, 1 / p.sigma_x, 1 / p.sigma_y])
        pts = rng.normal(size=(8, 4)) * scales
        cap = oracle.MOMENTUM_CAP_SIGMA / min(p.sigma_x, p.sigma_y)
        pts[:, 2:] = np.clip(pts[:, 2:], -cap, cap)
        vals = oracle.transform_points(p, pts, check_reality=False)
        worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
        worst_dev = max(worst_dev, float(np.max(np.abs(vals.real - oracle._exact_wigner(p, *pts.T)))))
    ok = worst_imag <= 1e-9 * tol_scale and worst_dev <= 1e-8 * tol_scale
    return ok, f"max imag residual {worst_imag:.2e}, max |sum - W| {worst_dev:.2e}"


def _exact_closed_form_constant(m: int, sx: float, sy: float) -> float:
    """Independent K_num: the eta-moment series in exact rational arithmetic.

    pi^{-2} K_num^{-1} = E[L_m^{-1/2}(eta^2)] = sum_k a_k E[eta^{2k}] with
    a_k the explicit Laguerre coefficients and E[eta^{2k}] = (2k-1)!!
    (rho/2)^k, rho = 1/4 + (sx^8 + sy^8) / (sx^2 sy^2 (sx^2 + sy^2))
    evaluated on the exact values of the float widths.
    """
    fx, fy = Fraction(sx) ** 2, Fraction(sy) ** 2
    rho = Fraction(1, 4) + (fx**4 + fy**4) / (fx * fy * (fx + fy))
    coeffs = _laguerre_half_coefficients(m)
    total = sum(a_k * math.prod(range(1, 2 * k, 2)) * (rho / 2) ** k for k, a_k in enumerate(coeffs))
    return 1.0 / (math.pi**2 * float(total))


def check_oracle_exactness(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst = 0.0
    # the closed-form K_num against its exact moment series; at sigma =
    # (0.9, 0.95), m = 5 (rho = 1.124) the series cancels by a factor of
    # 1.5e6, which its exact arithmetic does not feel
    for m, sx, sy in ((3, 5.0, 3.0), (2, 0.5, 1.0), (5, 0.9, 0.95)):
        p = state.QevParams.from_sigma(m, sx, sy)
        k_exact = _exact_closed_form_constant(m, p.sigma_x, p.sigma_y)
        worst = max(worst, abs(wigner.closed_form_norm_constant(p) - k_exact) / abs(k_exact))
    for p in (state.QevParams.from_sigma(3, 5.0, 3.0), state.QevParams.from_sigma(2, 0.5, 1.0)):
        scales = np.array([p.sigma_x, p.sigma_y, 1 / p.sigma_x, 1 / p.sigma_y])
        pts = rng.normal(size=(4, 4)) * scales * 0.8
        # the exact sum against the Laguerre-Gauss W at the same points
        a = oracle.transform_points(p, pts, check_reality=False).real
        worst = max(worst, float(np.max(np.abs(a - oracle._exact_wigner(p, *pts.T)))))
        # the minimal exact order and the next one must give the same norm
        norms = []
        for order in (p.m + 1, p.m + 2):
            nodes, w4 = oracle._lattice(order, 4)
            norms.append(float(np.sum(w4 * oracle._polynomial_factor(p, *nodes))))
        worst = max(worst, abs(norms[1] - norms[0]))
    return worst <= 1e-8 * tol_scale, f"max K_num/sum/norm-order delta {worst:.2e}"


def check_adjudication_m0(tol_scale: float) -> tuple[bool, str]:
    for sx, sy in ((1.0, 1.0), (5.0, 3.0), (0.5, 3.0)):
        p = state.QevParams.from_sigma(0, sx, sy)
        rep = oracle.validate_closed_form(p, 200, seed=20240811, tol=1e-6 * tol_scale)
        if not rep.all_match:
            return False, f"m=0 sigma=({sx},{sy}): {rep.n_mismatch} mismatches"
    return True, "m=0 control: 200/200 MATCH on all sigma pairs"


def check_adjudication_reports(tol_scale: float) -> tuple[bool, str]:
    if tol_scale <= 0:
        return False, "tolerance injected to zero"
    lines = []
    for m in (1, 3):
        p = state.QevParams.from_sigma(m, 5.0, 3.0)
        rep = oracle.validate_closed_form(p, 60, seed=20240811)
        if rep.n_match + rep.n_mismatch != len(rep.records):
            return False, "summary counts inconsistent with records"
        lines.append(f"m={m}: {rep.n_match}M/{rep.n_mismatch}X")
    return True, "; ".join(lines)


def check_entanglement_calibration(tol_scale: float) -> tuple[bool, str]:
    vac = ent.log_negativity(ent.vacuum_covariance(), pipeline="fixture")
    if vac.nu_min != 0.5 or vac.log_negativity != 0.0 or not vac.separable:
        return False, "vacuum spectrum not exactly (1/2, 1/2)"
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0):
        rep = ent.log_negativity(ent.tmsv_covariance(r), pipeline="fixture")
        worst = max(worst, abs(rep.log_negativity - 2.0 * r))
    if worst > 1e-12 * tol_scale:
        return False, f"TMSV E_N deviates by {worst:.2e}"
    zx = -0.3
    pairs = [(1.0, math.sqrt(5.0)), (0.5, 3.0), (math.exp(2 * zx), math.exp(2 * (math.log(5) / 4 + zx / 2)))]
    for sx, sy in pairs:
        cov = ent.second_moments(state.QevParams.from_sigma(0, sx, sy))
        rep = ent.log_negativity(cov)
        mu_max = float(np.max(np.abs(cov.mu)))
        det_dev = abs(cov.det_sigma() - 1.0 / 16.0)
        if mu_max > 1e-9 * tol_scale or rep.log_negativity > 1e-10 * tol_scale or det_dev > 1e-9 * tol_scale:
            return False, f"m=0 sigma=({sx:.3g},{sy:.3g}) not an exact product state"
    return True, f"vacuum/TMSV/product-state gates pass (TMSV worst {worst:.2e})"


def check_dual_method_moments(tol_scale: float) -> tuple[bool, str]:
    worst = 0.0
    for m in range(6):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                a = ent.second_moments(p, method="wavefunction").sigma
                b = ent.second_moments(p, method="wigner4d").sigma
                scale = np.abs(a) + 1e-3 * np.sqrt(np.outer(np.diag(a), np.diag(a)))
                worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return worst <= 1e-5 * tol_scale, f"max entrywise rel dev {worst:.2e}"


def check_uncertainty(tol_scale: float) -> tuple[bool, str]:
    worst = math.inf
    for p in _oracle_config_grid()[:: 5]:
        cov = ent.second_moments(p)
        worst = min(worst, min(ent.symplectic_eigen_physical(cov)))
    return worst >= 0.5 - 1e-9 * max(tol_scale, 1e-300), f"min physical eigenvalue {worst:.12f}"


def check_closed_form_consistency(tol_scale: float) -> tuple[bool, str]:
    p = state.QevParams.from_sigma(3, 5.0, 3.0)
    grid = wigner.wigner_slice(p, "xpx", axis_u=33, axis_v=33)
    u = grid.u_coords()
    v = grid.v_coords()
    worst = 0.0
    for i in (0, 7, 16, 29):
        for j in (3, 16, 31):
            direct = wigner.wigner_closed(p, wigner.PhasePoint(x=u[j], y=0.0, p_x=v[i], p_y=0.0))
            worst = max(worst, abs(direct - grid.values[i, j]))
    # K_num times the kernel on the matched lattice, whose Hermite weight is
    # the envelope: order m + 1 integrates the degree-2m Laguerre factor exactly
    (t, s, q_t, q_s), w4 = oracle._lattice(p.m + 1, 4)
    arg = wigner.alp_argument(p, p.sigma_x * t, p.sigma_y * s, q_t / p.sigma_x, q_s / p.sigma_y)
    norm = wigner.closed_form_norm_constant(p) * float(np.sum(w4 * numerics.laguerre_assoc_half(p.m, arg)))
    if abs(norm - 1.0) > 1e-8 * tol_scale:
        return False, f"closed-form norm off by {abs(norm - 1.0):.2e}"
    return worst <= 1e-15 * tol_scale, f"slice/4D dev {worst:.2e}; norm dev {abs(norm - 1.0):.2e}"


def check_m0_factorization(tol_scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for sx, sy in ((1.0, 1.0), (5.0, 3.0), (0.5, 3.0)):
        p = state.QevParams.from_sigma(0, sx, sy)
        pts = rng.normal(size=(32, 4)) * np.array([sx, sy, 1 / sx, 1 / sy])
        for row in pts:
            got = wigner.wigner_closed(p, wigner.PhasePoint(*row))
            want = (
                math.exp(-((row[0] / sx) ** 2) - (sx * row[2]) ** 2) / math.pi
                * math.exp(-((row[1] / sy) ** 2) - (sy * row[3]) ** 2) / math.pi
            )
            worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-12 * tol_scale, f"max rel dev {worst:.2e}"


CHECKS = [
    ("laguerre recurrence vs explicit polynomials", check_laguerre_recurrence),
    ("half-integer gamma closed form", check_gamma_half_integer),
    ("gauss-hermite exactness and symmetry", check_gauss_hermite),
    ("state normalization over the sigma grid", check_state_normalization),
    ("vortex winding numbers", check_state_winding),
    ("sigma-swap and parity symmetry", check_state_swap_and_parity),
    ("analytic gradient vs finite differences", check_state_gradient),
    ("oracle norm and purity", check_oracle_norm_purity),
    ("oracle marginal identity", check_oracle_marginal),
    ("oracle reality residual", check_oracle_reality),
    ("oracle exactness: K_num, sum vs W, minimal order", check_oracle_exactness),
    ("closed-form adjudication: m=0 control", check_adjudication_m0),
    ("closed-form adjudication: report integrity", check_adjudication_reports),
    ("entanglement calibration fixtures", check_entanglement_calibration),
    ("dual-method covariance agreement", check_dual_method_moments),
    ("uncertainty bound on all covariances", check_uncertainty),
    ("closed-form slice/4D consistency and norm", check_closed_form_consistency),
    ("m=0 closed-form factorization", check_m0_factorization),
]


def run_selftest(tol_scale: float = 1.0, verbose: bool = False, stream=None) -> int:
    """Run every check; print one line per check; exit code 0 iff all pass."""
    import sys

    stream = stream or sys.stdout
    results: list[CheckResult] = []
    width = max(len(name) for name, _ in CHECKS)
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(tol_scale)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, passed, detail, elapsed))
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name:<{width}}"
        if verbose:
            line += f"  [{elapsed:6.2f}s] {detail}"
        elif not passed:
            line += f"  {detail}"
        print(line, file=stream)
    n_fail = sum(1 for r in results if not r.passed)
    total = sum(r.seconds for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed in {total:.1f}s", file=stream)
    return 0 if n_fail == 0 else 3
