"""Invariant suite: one table of identities, each gated in one place.

Every row of ``CHECKS`` is ``(name, tolerance, measure)``.  ``measure()``
returns the measured error of one identity the code must satisfy (special
functions, state, oracle, closed form, entanglement) and a short detail
string.  An exact identity (node antisymmetry, winding numbers) measures 0
or inf, so it stays exact.  A row that gates quantities of different sizes
measures its largest error/tolerance ratio against a tolerance of 1.

``run_selftest`` is the only gate: a row passes iff its error is below its
tolerance times the ``--tol-scale`` factor.  A crash measures inf, and a
factor of zero fails every row (harness sanity).
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
    error: float
    tolerance: float
    detail: str
    seconds: float


def _exact(holds: bool) -> float:
    """The error of an exact identity: 0 when it holds, inf when it does not."""
    return 0.0 if holds else math.inf


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


def check_laguerre_recurrence() -> tuple[float, str]:
    rng = np.random.default_rng(2024)
    x = rng.uniform(-50.0, 50.0, size=100)
    worst = 0.0
    for m in range(6):
        got = numerics.laguerre_assoc_half(m, x)
        want = _explicit_laguerre_half(m, x)
        scale = np.maximum(np.abs(want), 1.0)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    return worst, "max rel err, m = 0..5"


def check_gamma_half_integer() -> tuple[float, str]:
    worst = 0.0
    for m in range(11):
        want = math.gamma(m + 0.5)
        worst = max(worst, abs(numerics.gamma_half_integer(m) - want) / want)
    return worst, "max rel err vs math.gamma, m = 0..10"


def check_gauss_hermite() -> tuple[float, str]:
    worst, symmetric = 0.0, True
    for order in (5, 16, 64):
        rule = numerics.gauss_hermite_rule(order)
        for k in range(order):
            want = numerics.gamma_half_integer(k)  # (2k-1)!!/2^k sqrt(pi)
            got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            worst = max(worst, abs(got - want) / want)
        worst = max(worst, abs(float(rule.weights.sum()) - math.sqrt(math.pi)))
        symmetric = symmetric and np.array_equal(rule.nodes, -rule.nodes[::-1])
    return max(worst, _exact(symmetric)), "max monomial rel err and |weight sum - sqrt(pi)|; nodes antisymmetric"


def check_state_normalization() -> tuple[float, str]:
    worst = 0.0
    for m in range(9):
        # |psi|^2 is the Hermite weight times a degree-2m polynomial per axis
        (t, s), w2 = oracle._lattice(m + 1, 2)
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                p = state.QevParams.from_sigma(m, sx, sy)
                density = np.exp(t * t + s * s) * state.intensity(p, sx * t, sy * s)
                worst = max(worst, abs(sx * sy * float(np.sum(w2 * density)) - 1.0))
    return worst, "max |norm - 1| on the order m+1 lattice, m = 0..8"


def check_state_winding() -> tuple[float, str]:
    holds = all(
        state.winding_number(state.QevParams.from_sigma(m, sx, sy, sign=sign)) == sign * m
        for m in range(9)
        for sx, sy in ((0.5, 5.0), (1.0, 1.0), (3.0, 0.5))
        for sign in (+1, -1)
    )
    return _exact(holds), "winding = sign*m for m in 0..8"


def check_state_swap_and_parity() -> tuple[float, str]:
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6.0, 6.0, size=(64, 2))
    worst = 0.0
    for m in (0, 1, 3, 5):
        for sx, sy in ((0.5, 3.0), (5.0, 3.0), (1.0, 1.0)):
            p = state.QevParams.from_sigma(m, sx, sy)
            a = state.intensity(p, pts[:, 0], pts[:, 1])
            b = state.intensity(p.swapped(), pts[:, 1], pts[:, 0])
            c = state.intensity(p, -pts[:, 0], -pts[:, 1])
            worst = max(worst, float(np.max(np.abs(a - b))), float(np.max(np.abs(a - c))))
    return worst, "max swap/parity deviation of |psi|^2"


def check_state_gradient() -> tuple[float, str]:
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
    return worst, "max central-difference rel dev"


def _oracle_config_grid(sign: int = 1) -> list[state.QevParams]:
    return [state.QevParams.from_sigma(m, sx, sy, sign) for m in range(6) for sx in SIGMA_GRID for sy in SIGMA_GRID]


def check_oracle_norm() -> tuple[float, str]:
    return max(abs(oracle.wigner_norm(p) - 1.0) for p in _oracle_config_grid()), "max |norm - 1|"


def check_oracle_purity() -> tuple[float, str]:
    return max(abs(oracle.wigner_purity(p) - 1.0) for p in _oracle_config_grid()), "max |purity - 1|"


def check_oracle_marginal() -> tuple[float, str]:
    worst = max(oracle.marginal_check(p).max_abs_deviation for p in _oracle_config_grid())
    return worst, "max |momentum marginal - |psi|^2|"


def _transform_samples() -> list[tuple[np.ndarray, np.ndarray]]:
    """(exact transform sum, exact W) at seeded phase points of seventeen states, up to m = 30."""
    samples = []
    rng = np.random.default_rng(5)
    for p in _oracle_config_grid()[::7]:
        scales = np.array([p.sigma_x, p.sigma_y, 1 / p.sigma_x, 1 / p.sigma_y])
        pts = rng.normal(size=(8, 4)) * scales
        cap = oracle.MOMENTUM_CAP_SIGMA / min(p.sigma_x, p.sigma_y)
        pts[:, 2:] = np.clip(pts[:, 2:], -cap, cap)
        samples.append((p, pts))
    rng = np.random.default_rng(3)
    for m, sx, sy in ((3, 5.0, 3.0), (2, 0.5, 1.0), (30, 5.0, 3.0)):
        p = state.QevParams.from_sigma(m, sx, sy)
        scales = np.array([p.sigma_x, p.sigma_y, 1 / p.sigma_x, 1 / p.sigma_y])
        samples.append((p, rng.normal(size=(4, 4)) * scales * 0.8))
    return [
        (oracle.transform_points(p, pts, check_reality=False), oracle._exact_wigner(p, *pts.T))
        for p, pts in samples
    ]


def check_oracle_reality() -> tuple[float, str]:
    worst = max(float(np.max(np.abs(got.imag))) for got, _ in _transform_samples())
    return worst, "max imaginary residual of the transform sum"


def check_oracle_transform() -> tuple[float, str]:
    worst = max(float(np.max(np.abs(got.real - want))) for got, want in _transform_samples())
    return worst, "max |transform sum - Laguerre-Gauss W|"


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


def check_closed_form_constant() -> tuple[float, str]:
    worst = 0.0
    # at sigma = (0.9, 0.95), m = 5 (rho = 1.124) the series cancels by a
    # factor of 1.5e6, which its exact arithmetic does not feel
    for m, sx, sy in ((3, 5.0, 3.0), (2, 0.5, 1.0), (5, 0.9, 0.95)):
        p = state.QevParams.from_sigma(m, sx, sy)
        k_exact = _exact_closed_form_constant(m, p.sigma_x, p.sigma_y)
        worst = max(worst, abs(wigner.closed_form_norm_constant(p) - k_exact) / abs(k_exact))
    return worst, "max rel dev of K_num from its exact moment series"


def check_adjudication_m0() -> tuple[float, str]:
    # every point, not only those above the MATCH rule's absolute floor
    worst = 0.0
    for sx, sy in ((1.0, 1.0), (5.0, 3.0), (0.5, 3.0)):
        rep = oracle.validate_closed_form(state.QevParams.from_sigma(0, sx, sy), 200, seed=20240811)
        worst = max([worst] + [r.rel_err for r in rep.records])
    return worst, "max rel err over all 600 m=0 points"


def check_entanglement_calibration() -> tuple[float, str]:
    vac = ent.log_negativity(ent.vacuum_covariance(), pipeline="fixture")
    vacuum = _exact(vac.nu_min == 0.5 and vac.log_negativity == 0.0 and vac.separable)
    tmsv = max(
        abs(ent.log_negativity(ent.tmsv_covariance(r), pipeline="fixture").log_negativity - 2.0 * r)
        for r in (0.25, 0.5, 1.0, 2.0)
    )
    zx = -0.3
    pairs = [(1.0, math.sqrt(5.0)), (0.5, 3.0), (math.exp(2 * zx), math.exp(2 * (math.log(5) / 4 + zx / 2)))]
    product = 0.0
    for sx, sy in pairs:
        cov = ent.second_moments(state.QevParams.from_sigma(0, sx, sy))
        product = max(
            product,
            float(np.max(np.abs(cov.mu))) / 1e-9,
            ent.log_negativity(cov).log_negativity / 1e-10,
            abs(cov.det_sigma() - 1.0 / 16.0) / 1e-9,
        )
    detail = "error/tol: vacuum exact, TMSV |E_N - 2r| / 1e-12, m=0 |mu| / 1e-9, E_N / 1e-10, |det - 1/16| / 1e-9"
    return max(vacuum, tmsv / 1e-12, product), detail


def _svs(p: state.QevParams) -> np.ndarray:
    """The state's covariance in (x, p_x, y, p_y): S V S, with V that of the
    circular-mode Fock state and S = diag(sx, 1/sx, sy, 1/sy) its squeezing."""
    m, sign = p.m, p.sign
    v = np.eye(4) * (m + 1) / 2.0
    v[0, 3] = v[3, 0] = sign * m / 2.0
    v[1, 2] = v[2, 1] = -sign * m / 2.0
    scale = np.diag([p.sigma_x, 1.0 / p.sigma_x, p.sigma_y, 1.0 / p.sigma_y])
    return scale @ v @ scale


def check_covariance_svs() -> tuple[float, str]:
    worst = {"wavefunction": 0.0, "wigner4d": 0.0}
    for p in _oracle_config_grid(+1) + _oracle_config_grid(-1):
        want = _svs(p)
        scale = np.abs(want) + 1e-3 * np.sqrt(np.outer(np.diag(want), np.diag(want)))
        for method in worst:
            got = ent.second_moments(p, method=method).sigma
            worst[method] = max(worst[method], float(np.max(np.abs(got - want) / scale)))
    return max(worst.values()), "max entrywise rel dev: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())


def check_uncertainty() -> tuple[float, str]:
    lowest = min(min(ent.symplectic_eigen_physical(ent.second_moments(p))) for p in _oracle_config_grid()[::5])
    return max(0.0, 0.5 - lowest), f"1/2 - min physical eigenvalue ({lowest:.12f})"


def check_closed_form_slice() -> tuple[float, str]:
    p = state.QevParams.from_sigma(3, 5.0, 3.0)
    grid = wigner.wigner_slice(p, "xpx", axis_u=33, axis_v=33)
    u, v = grid.u_coords(), grid.v_coords()
    worst = 0.0
    for i in (0, 7, 16, 29):
        for j in (3, 16, 31):
            direct = wigner.wigner_closed(p, wigner.PhasePoint(x=u[j], y=0.0, p_x=v[i], p_y=0.0))
            worst = max(worst, abs(direct - grid.values[i, j]))
    return worst, "max |slice - pointwise kernel|, m=3"


def check_closed_form_norm() -> tuple[float, str]:
    # K_num times the kernel on the matched lattice, whose Hermite weight is
    # the envelope: order m + 1 integrates the degree-2m Laguerre factor exactly
    p = state.QevParams.from_sigma(3, 5.0, 3.0)
    (t, s, q_t, q_s), w4 = oracle._lattice(p.m + 1, 4)
    arg = wigner.alp_argument(p, p.sigma_x * t, p.sigma_y * s, q_t / p.sigma_x, q_s / p.sigma_y)
    norm = wigner.closed_form_norm_constant(p) * float(np.sum(w4 * numerics.laguerre_assoc_half(p.m, arg)))
    return abs(norm - 1.0), "|closed-form norm - 1|, m=3"


def check_m0_factorization() -> tuple[float, str]:
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
    return worst, "max rel dev from the product Gaussian"


CHECKS = [
    ("laguerre recurrence vs explicit polynomials", 1e-12, check_laguerre_recurrence),
    ("half-integer gamma closed form", 1e-15, check_gamma_half_integer),
    ("gauss-hermite exactness and symmetry", 1e-12, check_gauss_hermite),
    ("state normalization over the sigma grid", 1e-8, check_state_normalization),
    ("vortex winding numbers", 1.0, check_state_winding),
    ("sigma-swap and parity symmetry", 1e-14, check_state_swap_and_parity),
    ("analytic gradient vs finite differences", 1e-6, check_state_gradient),
    ("oracle norm = 1", 1e-8, check_oracle_norm),
    ("oracle purity = 1", 1e-6, check_oracle_purity),
    ("oracle marginal identity", 1e-6, check_oracle_marginal),
    ("oracle reality residual", 1e-9, check_oracle_reality),
    ("oracle transform sum = exact W", 1e-8, check_oracle_transform),
    ("closed-form K_num = exact series", 1e-8, check_closed_form_constant),
    ("closed-form adjudication: m=0 control", 1e-6, check_adjudication_m0),
    ("entanglement calibration fixtures", 1.0, check_entanglement_calibration),
    ("covariance = S V S (both routes)", 5e-6, check_covariance_svs),
    ("uncertainty bound on all covariances", 1e-9, check_uncertainty),
    ("closed-form slice vs pointwise kernel", 1e-15, check_closed_form_slice),
    ("closed-form norm = 1", 1e-8, check_closed_form_norm),
    ("m=0 closed-form factorization", 1e-12, check_m0_factorization),
]


def run_selftest(tol_scale: float = 1.0, verbose: bool = False, stream=None) -> int:
    """Measure every row; print one line per row; exit code 0 iff all pass."""
    import sys

    stream = stream or sys.stdout
    results: list[CheckResult] = []
    width = max(len(name) for name, _, _ in CHECKS)
    for name, tolerance, measure in CHECKS:
        start = time.perf_counter()
        try:
            error, detail = measure()
        except Exception as exc:  # a crash is a failure, not an abort
            error, detail = math.inf, f"raised {type(exc).__name__}: {exc}"
        limit = tolerance * tol_scale
        result = CheckResult(name, error < limit, error, limit, detail, time.perf_counter() - start)
        results.append(result)
        line = f"{'PASS' if result.passed else 'FAIL'}  {name:<{width}}"
        if verbose:
            line += f"  [{result.seconds:6.2f}s]"
        if verbose or not result.passed:
            line += f"  error {error:.2e} vs tol {limit:.1e}: {detail}"
        print(line, file=stream)
    n_fail = sum(1 for r in results if not r.passed)
    total = sum(r.seconds for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed in {total:.1f}s", file=stream)
    return 0 if n_fail == 0 else 3
