"""Ground-truth Wigner function of the state, independent of the closed form.

The oracle's object is the defining transform

    W(x, y, p_x, p_y) = (1/pi^2) * integral du dv
        conj(psi)(x+u, y+v) * psi(x-u, y-v) * e^{2i(u p_x + v p_y)}

and it never touches the paper's closed-form expression, so it can
adjudicate it.  Two evaluators exist:

* ``wigner_transform`` / ``transform_points`` sum the defining integral
  of ``psi`` exactly as a finite Hermite-Fourier series, with a
  reality-residual check.  This is the arbiter behind
  ``validate_closed_form``.

* The exact Laguerre-Gauss form.  In scaled coordinates t = x/sigma_x,
  s = y/sigma_y, q_t = sigma_x p_x, q_s = sigma_y p_y the state is a
  circular-mode Fock state under local squeezing, so with
  Q = t^2 + s^2 + q_t^2 + q_s^2

      W = ((-1)^m / pi^2) e^{-Q} L_m(Q + 2 sign (t q_s - s q_t))

  (Simon and Agarwal, Opt. Lett. 25, 1313 (2000)).  Slices use it
  directly.  Norm, marginal, purity and moments integrate it on matched
  Gauss-Hermite lattices of the minimal exact order, because each
  integrand is the Hermite weight times a polynomial of known degree.
  The test suite pins it against the literal transform.

Everything is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import gauss_hermite_rule, laguerre_general
from .state import QevParams, _norm_constant_cached, intensity
from .wigner import Grid2D, PhasePoint, _closed_kernel, _slice_coords, closed_form_norm_constant

__all__ = [
    "wigner_transform",
    "transform_points",
    "wigner_norm",
    "wigner_purity",
    "wigner_cross_purity",
    "marginal_check",
    "MarginalReport",
    "validate_closed_form",
    "ValidationRecord",
    "ValidationReport",
    "sample_phase_points",
    "oracle_covariance_entries",
    "REALITY_RESIDUAL_MAX",
    "MOMENTUM_CAP_SIGMA",
]

REALITY_RESIDUAL_MAX = 1e-9
MOMENTUM_CAP_SIGMA = 4.0  # validated |p| <= 4 / sigma_min
# Bytes of coefficient tables one transform_points block may hold, so its
# peak memory does not grow with the number of points.
TRANSFORM_BLOCK_BYTES = 8 * 2**20


def wigner_transform(params: QevParams, point: PhasePoint) -> float:
    """Wigner value at one point from the defining transform.

    Returns the real part; the imaginary residual must stay below
    ``REALITY_RESIDUAL_MAX`` (the distribution of a Hermitian density
    operator is real), else a NumericError is raised.
    """
    return float(transform_points(params, np.array([[point.x, point.y, point.p_x, point.p_y]]))[0].real)


def _block_points(m: int) -> int:
    """Points per ``transform_points`` block within TRANSFORM_BLOCK_BYTES.

    A point holds at most three complex (2m+1)^2 coefficient tables at once.
    Raises ConfigError, before anything is allocated, when one point alone
    exceeds the budget.
    """
    per_point = 3 * 16 * (2 * m + 1) ** 2
    if per_point > TRANSFORM_BLOCK_BYTES:
        raise ConfigError(
            f"m = {m} needs {per_point} bytes per transform point, over the "
            f"{TRANSFORM_BLOCK_BYTES}-byte block budget"
        )
    return TRANSFORM_BLOCK_BYTES // per_point


def _hermite_rows(a: np.ndarray, count: int) -> np.ndarray:
    """(N, count) table of H_j(a) e^{-a^2}, j < count, by the three-term recurrence."""
    rows = np.empty((a.size, count))
    rows[:, 0] = np.exp(-a * a)
    if count > 1:
        rows[:, 1] = 2.0 * a * rows[:, 0]
    for j in range(1, count - 1):
        rows[:, j + 1] = 2.0 * a * rows[:, j] - 2.0 * j * rows[:, j - 1]
    return rows


def _hermite_fourier_sum(params: QevParams, pts: np.ndarray) -> np.ndarray:
    """The transform at one block of points; see ``transform_points``."""
    sx, sy, m, sign = params.sigma_x, params.sigma_y, params.m, params.sign
    x, y, p_x, p_y = pts.T
    a = x / (math.sqrt(2.0) * sx) - 1j * sign * y / (math.sqrt(2.0) * sy)
    r = 1.0 / (2.0 * math.sqrt(2.0))
    n = 2 * m + 1
    # coefficients of L R with t -> i t/2 and s -> i s/2 folded in
    coeffs = np.zeros((len(pts), n, n), dtype=np.complex128)
    coeffs[:, 0, 0] = 1.0
    for c0, ct, cs in [(a, 1j * r, sign * r)] * m + [(a.conj(), -1j * r, sign * r)] * m:
        product = coeffs * c0[:, None, None]
        product[:, 1:, :] += ct * coeffs[:, :-1, :]
        product[:, :, 1:] += cs * coeffs[:, :, :-1]
        coeffs = product
    rows_t = _hermite_rows(sx * p_x, n)
    rows_s = _hermite_rows(sy * p_y, n)
    total = np.sum(np.sum(coeffs * rows_s[:, None, :], axis=2) * rows_t, axis=1)
    n2 = _norm_constant_cached(params) ** 2
    return (sx * sy * n2 / math.pi) * np.exp(-((x / sx) ** 2) - (y / sy) ** 2) * total


def transform_points(params: QevParams, points: np.ndarray, check_reality: bool = True):
    """The defining transform at an (N, 4) array of phase points, summed exactly.

    With u = sigma_x t, v = sigma_y s the integrand is e^{-t^2-s^2} L R
    e^{2i(a t + b s)}, with a = sigma_x p_x, b = sigma_y p_y and the vortex
    factors L = (A + (t - i sign s)/sqrt(2))^m of conj(psi)(x+u, y+v) and
    R = (conj(A) - (t + i sign s)/sqrt(2))^m of psi(x-u, y-v), where
    A = x/(sqrt(2) sigma_x) - i sign y/(sqrt(2) sigma_y).  The coefficients
    of the degree-2m polynomial L R come from 2m shift-and-add products of
    linear forms, and integral t^k e^{-t^2 + 2iat} dt =
    sqrt(pi) (i/2)^k H_k(a) e^{-a^2}, so W is a finite sum over Hermite rows.
    Blocks of points are sized from TRANSFORM_BLOCK_BYTES and do not change
    any value.  Returns complex values; the imaginary parts are roundoff.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ConfigError("points must be an (N, 4) array of (x, y, p_x, p_y)")
    block = _block_points(params.m)
    values = np.empty(len(pts), dtype=np.complex128)
    for start in range(0, len(pts), block):
        values[start : start + block] = _hermite_fourier_sum(params, pts[start : start + block])
    imag = np.abs(values.imag)
    if check_reality and np.any(imag >= REALITY_RESIDUAL_MAX):
        worst = int(np.argmax(imag))
        raise NumericError(
            f"Wigner transform imaginary residual {imag[worst]:.3e} exceeds "
            f"{REALITY_RESIDUAL_MAX:.1e} at point index {worst} {tuple(pts[worst])}"
        )
    return values


# ---------------------------------------------------------------------------
# Exact Laguerre-Gauss evaluator
# ---------------------------------------------------------------------------


def _polynomial_factor(params: QevParams, t, s, q_t, q_s):
    """e^{Q} W in scaled coordinates: ((-1)^m / pi^2) L_m(Q + 2 sign (t q_s - s q_t))."""
    q = t * t + s * s + q_t * q_t + q_s * q_s
    arg = q + 2.0 * params.sign * (t * q_s - s * q_t)
    return ((-1) ** params.m / math.pi**2) * laguerre_general(params.m, 0.0, arg)


def _exact_wigner(params: QevParams, x, y, p_x, p_y):
    """Exact W, broadcast over the four coordinates."""
    t, s = x / params.sigma_x, y / params.sigma_y
    q_t, q_s = params.sigma_x * p_x, params.sigma_y * p_y
    return np.exp(-(t * t + s * s + q_t * q_t + q_s * q_s)) * _polynomial_factor(params, t, s, q_t, q_s)


def _lattice(order: int, dims: int, scale: float = 1.0):
    """Per-axis nodes (broadcastable) and product weights of a dims-D Hermite lattice."""
    rule = gauss_hermite_rule(order)
    nodes, weights = [], 1.0
    for axis in range(dims):
        shape = [1] * dims
        shape[axis] = order
        nodes.append(scale * rule.nodes.reshape(shape))
        weights = weights * rule.weights.reshape(shape)
    return nodes, weights


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def wigner_norm(params: QevParams) -> float:
    """Phase-space integral of the exact W (should be 1).

    On the matched lattice x = sigma_x t, p_x = q_t/sigma_x (and the y
    analogue, unit jacobian) the integrand is the Hermite weight times a
    polynomial of degree 2m per variable, so order m + 1 is exact.
    """
    nodes, w4 = _lattice(params.m + 1, 4)
    return float(np.sum(w4 * _polynomial_factor(params, *nodes)))


def wigner_purity(params: QevParams) -> float:
    """(2 pi)^2 integral W^2; equals 1 for every pure state in this family."""
    return wigner_cross_purity(params, params)


def wigner_cross_purity(params_a: QevParams, params_b: QevParams) -> float:
    """(2 pi)^2 integral W_a W_b for two states with identical widths.

    On the half-width lattice (t, s, q_t, q_s) = tau / sqrt(2) the product
    Gaussian e^{-2Q} is the Hermite weight (jacobian 1/4) and the
    polynomial has degree 2(m_a + m_b) per variable, so order
    m_a + m_b + 1 is exact.
    """
    if params_a.sigma_x != params_b.sigma_x or params_a.sigma_y != params_b.sigma_y:
        raise ConfigError("cross purity requires matching sigma values")
    nodes, w4 = _lattice(params_a.m + params_b.m + 1, 4, scale=1.0 / math.sqrt(2.0))
    product = _polynomial_factor(params_a, *nodes) * _polynomial_factor(params_b, *nodes)
    return float(math.pi**2 * np.sum(w4 * product))


@dataclass(frozen=True)
class MarginalReport:
    grid_shape: tuple[int, int]
    max_abs_deviation: float


def marginal_check(params: QevParams) -> MarginalReport:
    """Compare the momentum-integrated exact W against |psi|^2 on a position grid.

    The grid has 65 points per axis over +-4 sigma_max.
    """
    smax = max(params.sigma_x, params.sigma_y)
    x = np.linspace(-4.0 * smax, 4.0 * smax, 65)
    y = x
    target = intensity(params, x[:, None], y[None, :])
    dev = float(np.max(np.abs(_oracle_marginal(params, x, y) - target)))
    return MarginalReport(grid_shape=(x.size, y.size), max_abs_deviation=dev)


def _oracle_marginal(params: QevParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Momentum integral of the exact W on a position grid.

    In q_t = sigma_x p_x, q_s = sigma_y p_y the integrand is the Hermite
    weight times a polynomial of degree 2m per variable: order m + 1 is exact.
    """
    sx, sy = params.sigma_x, params.sigma_y
    (q_t, q_s), w2 = _lattice(params.m + 1, 2)
    t = (x / sx)[:, None]
    s = (y / sy)[None, :]
    factor = _polynomial_factor(params, t[..., None, None], s[..., None, None], q_t, q_s)
    return np.exp(-t * t - s * s) * np.sum(w2 * factor, axis=(2, 3)) / (sx * sy)


# ---------------------------------------------------------------------------
# Closed-form adjudication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRecord:
    index: int
    point: PhasePoint
    closed_value: float
    oracle_value: float
    abs_err: float
    rel_err: float
    imag_residual: float
    rule_order: int  # Hermite terms per axis of the exact sum, 2m + 1
    verdict: str  # MATCH | MISMATCH


@dataclass
class ValidationReport:
    params: QevParams
    seed: int
    tol: float
    abs_floor: float
    records: list[ValidationRecord]
    n_match: int
    n_mismatch: int
    max_rel_err: float
    rule_orders: tuple[int, ...]
    convergence_delta: float

    @property
    def all_match(self) -> bool:
        return self.n_mismatch == 0


def sample_phase_points(params: QevParams, n_points: int, seed: int) -> np.ndarray:
    """Seeded counter-based Gaussian phase points, one Philox stream per index.

    Scales are (sigma_x, sigma_y, 1/sigma_x, 1/sigma_y); momenta are redrawn
    within their own stream until inside the validated cap
    |p| <= 4/sigma_min, so every point depends only on (seed, index).
    """
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    scales = np.array(
        [params.sigma_x, params.sigma_y, 1.0 / params.sigma_x, 1.0 / params.sigma_y]
    )
    cap = MOMENTUM_CAP_SIGMA / min(params.sigma_x, params.sigma_y)
    out = np.empty((n_points, 4))
    for i in range(n_points):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        while True:
            draw = gen.normal(size=4) * scales
            if abs(draw[2]) <= cap and abs(draw[3]) <= cap:
                out[i] = draw
                break
    return out


def validate_closed_form(
    params: QevParams,
    n_points: int,
    seed: int,
    tol: float = 1e-6,
    abs_floor: float = 1e-12,
) -> ValidationReport:
    """Adjudicate the closed form against the transform oracle point by point.

    verdict is MATCH iff rel_err <= tol or abs_err <= abs_floor.  Both sides
    are evaluated once over all points.  ``rule_order`` is the number of
    Hermite terms per axis of the exact sum, 2m + 1, and
    ``convergence_delta`` is |sum - Laguerre-Gauss W| at the first point.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    pts = sample_phase_points(params, n_points, seed)
    x, y, p_x, p_y = pts.T
    closed = closed_form_norm_constant(params) * _closed_kernel(params, x, y, p_x, p_y)
    oracle_vals = transform_points(params, pts)
    order = 2 * params.m + 1
    records = []
    n_match = 0
    max_rel = 0.0
    for i in range(n_points):
        o = float(oracle_vals[i].real)
        c = float(closed[i])
        abs_err = abs(c - o)
        rel_err = abs_err / abs(o) if o != 0.0 else (0.0 if abs_err == 0.0 else math.inf)
        verdict = "MATCH" if (rel_err <= tol or abs_err <= abs_floor) else "MISMATCH"
        if verdict == "MATCH":
            n_match += 1
        max_rel = max(max_rel, rel_err)
        records.append(
            ValidationRecord(
                index=i,
                point=PhasePoint(*pts[i]),
                closed_value=c,
                oracle_value=o,
                abs_err=abs_err,
                rel_err=rel_err,
                imag_residual=float(abs(oracle_vals[i].imag)),
                rule_order=order,
                verdict=verdict,
            )
        )

    delta = float(abs(oracle_vals[0].real - _exact_wigner(params, *pts[0])))
    return ValidationReport(
        params=params,
        seed=seed,
        tol=tol,
        abs_floor=abs_floor,
        records=records,
        n_match=n_match,
        n_mismatch=n_points - n_match,
        max_rel_err=max_rel,
        rule_orders=(order,),
        convergence_delta=delta,
    )


def oracle_slice(
    params: QevParams,
    plane: str,
    axis_u: tuple[float, float, int] | int | None = None,
    axis_v: tuple[float, float, int] | int | None = None,
):
    """Oracle counterpart of ``wigner.wigner_slice``: the exact W on the
    same grid and windows, so slice structure can be compared across the
    two pipelines."""
    spec_u, spec_v, coords = _slice_coords(params, plane, axis_u, axis_v)
    return Grid2D(plane=plane, axis_u=spec_u, axis_v=spec_v, values=_exact_wigner(params, **coords))


def oracle_covariance_entries(params: QevParams) -> dict[str, float]:
    """First and second moments of the oracle W (Weyl-symmetrized products).

    On the matched lattice the quadratic observables raise the polynomial
    degree to 2m + 2 per variable, so order m + 2 is exact.
    """
    nodes, w4 = _lattice(params.m + 2, 4)
    base = w4 * _polynomial_factor(params, *nodes)
    t, s, q_t, q_s = nodes
    sx, sy = params.sigma_x, params.sigma_y
    coords = {"x": sx * t, "y": sy * s, "p_x": q_t / sx, "p_y": q_s / sy}
    pairs = {
        "xx": ("x", "x"), "yy": ("y", "y"), "pxpx": ("p_x", "p_x"), "pypy": ("p_y", "p_y"),
        "xpx": ("x", "p_x"), "ypy": ("y", "p_y"), "xy": ("x", "y"),
        "xpy": ("x", "p_y"), "ypx": ("y", "p_x"), "pxpy": ("p_x", "p_y"),
    }
    out = {name: float(np.sum(base * c)) for name, c in coords.items()}
    out.update({name: float(np.sum(base * coords[a] * coords[b])) for name, (a, b) in pairs.items()})
    return out
