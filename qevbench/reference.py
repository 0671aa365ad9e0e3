"""Independent references for the qev benchmark checks.

Nothing here imports qev: every value is derived from the physics of the
state family, so a check passes only if the program agrees with it.

* ``exact_wigner``: the Laguerre-Gauss Wigner function of the state (Simon
  and Agarwal, Opt. Lett. 25, 1313 (2000)).  In scaled coordinates
  t = x/sx, s = y/sy, q_t = sx p_x, q_s = sy p_y, with
  Q = t^2 + s^2 + q_t^2 + q_s^2,
  W = ((-1)^m / pi^2) e^{-Q} L_m(Q + 2 sign (t q_s - s q_t)).
* ``exact_covariance``: S V S with S = diag(sx, 1/sx, sy, 1/sy) and V the
  covariance of the unscaled circular-mode Fock state.
* ``closed_form_constant``: the unit-norm constant of the paper's printed
  closed form, from exact Gaussian moments of its one linear form eta and
  the rational coefficients of L_m^{-1/2}, summed in exact arithmetic.
* ``closed_form_value``: the printed expression times that constant.
* ``product_gaussian``: the m = 0 state, a product of squeezed vacua.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INV_PI2 = 1.0 / math.pi**2


def laguerre_coefficients(m: int, alpha: Fraction) -> list[Fraction]:
    """Exact coefficients a_k of L_m^alpha(x) = sum_k a_k x^k.

    a_k = (-1)^k binom(m + alpha, m - k) / k!, with the generalised
    binomial written as a finite product so it stays rational.
    """
    out = []
    for k in range(m + 1):
        binom = Fraction(1)
        for j in range(m - k):
            binom *= (alpha + k + 1 + j) / Fraction(j + 1)
        out.append((-1) ** k * binom / math.factorial(k))
    return out


def _poly(coeffs: list[Fraction], x):
    acc = np.zeros_like(np.asarray(x, dtype=np.float64)) + float(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + float(c)
    return acc


def _scaled(sigma_x: float, sigma_y: float, x, y, p_x, p_y):
    return (
        np.asarray(x, dtype=np.float64) / sigma_x,
        np.asarray(y, dtype=np.float64) / sigma_y,
        sigma_x * np.asarray(p_x, dtype=np.float64),
        sigma_y * np.asarray(p_y, dtype=np.float64),
    )


def exact_wigner(m: int, sigma_x: float, sigma_y: float, sign: int, x, y, p_x, p_y):
    """Exact Wigner function of the state, broadcast over the coordinates."""
    t, s, q_t, q_s = _scaled(sigma_x, sigma_y, x, y, p_x, p_y)
    q = t * t + s * s + q_t * q_t + q_s * q_s
    arg = q + 2.0 * sign * (t * q_s - s * q_t)
    lag = _poly(laguerre_coefficients(m, Fraction(0)), arg)
    return (-1) ** m * INV_PI2 * np.exp(-q) * lag


def product_gaussian(sigma_x: float, sigma_y: float, x, y, p_x, p_y):
    """Wigner function of the m = 0 state: two squeezed vacua."""
    t, s, q_t, q_s = _scaled(sigma_x, sigma_y, x, y, p_x, p_y)
    return INV_PI2 * np.exp(-(t * t + s * s + q_t * q_t + q_s * q_s))


def exact_covariance(m: int, sigma_x: float, sigma_y: float, sign: int) -> np.ndarray:
    """Covariance in the order (x, p_x, y, p_y): S V S."""
    v = np.diag([(m + 1) / 2.0] * 4)
    v[0, 3] = v[3, 0] = sign * m / 2.0
    v[1, 2] = v[2, 1] = -sign * m / 2.0
    scale = np.diag([sigma_x, 1.0 / sigma_x, sigma_y, 1.0 / sigma_y])
    return scale @ v @ scale


def _eta_coefficients(sigma_x: float, sigma_y: float) -> tuple[float, float, float, float]:
    """Coefficients of eta in the matched variables (t_x, t_y, t_px, t_py).

    The printed form's Laguerre argument is eta^2 with
    eta = (PX2 + PY2 - X2 - Y2) / sqrt(sx^2 + sy^2), where X2 = sy x/(2 sx),
    Y2 = sx y/(2 sy), PX2 = sy^3 p_x, PY2 = sx^3 p_y.  On the lattice
    x = sx t_x, y = sy t_y, p_x = t_px/sx, p_y = t_py/sy (unit Jacobian)
    the Gaussian envelope becomes e^{-|t|^2}.
    """
    denom = math.sqrt(sigma_x**2 + sigma_y**2)
    return (
        -sigma_y / 2.0 / denom,
        -sigma_x / 2.0 / denom,
        sigma_y**3 / sigma_x / denom,
        sigma_x**3 / sigma_y / denom,
    )


def _eta_moment_terms(m: int, sigma_x: float, sigma_y: float) -> list[Fraction]:
    """Exact terms a_k E[eta^{2k}] of E[L_m^{-1/2}(eta^2)].

    Under the weight e^{-|t|^2} each t_i is Gaussian with variance 1/2, so
    eta is Gaussian with variance |c|^2/2 and E[eta^{2k}] =
    (|c|^2/2)^k (2k-1)!!, taken exactly from the float |c|^2.
    """
    c2 = Fraction(sum(c * c for c in _eta_coefficients(sigma_x, sigma_y)))
    terms = []
    double_fact = 1
    for k, a_k in enumerate(laguerre_coefficients(m, Fraction(-1, 2))):
        if k > 0:
            double_fact *= 2 * k - 1
        terms.append(a_k * double_fact * (c2 / 2) ** k)
    return terms


def closed_form_constant(m: int, sigma_x: float, sigma_y: float) -> float:
    """K_num = 1 / integral of the unnormalised printed expression.

    The integral is pi^2 E[L_m^{-1/2}(eta^2)].
    """
    return 1.0 / (math.pi**2 * float(sum(_eta_moment_terms(m, sigma_x, sigma_y))))


def closed_form_condition(m: int, sigma_x: float, sigma_y: float) -> float:
    """Cancellation factor sum|terms| / |sum terms| of that integral.

    A float evaluation of the integral (the program's quadrature) can be
    off by about this factor times the unit roundoff.
    """
    terms = _eta_moment_terms(m, sigma_x, sigma_y)
    return float(sum(abs(t) for t in terms) / abs(sum(terms)))


def closed_form_kernel(m: int, sigma_x: float, sigma_y: float, x, y, p_x, p_y):
    """The printed expression without its constant."""
    t, s, q_t, q_s = _scaled(sigma_x, sigma_y, x, y, p_x, p_y)
    cx, cy, cpx, cpy = _eta_coefficients(sigma_x, sigma_y)
    eta = cx * t + cy * s + cpx * q_t + cpy * q_s
    lag = _poly(laguerre_coefficients(m, Fraction(-1, 2)), eta * eta)
    return np.exp(-(t * t + s * s + q_t * q_t + q_s * q_s)) * lag


def closed_form_value(m: int, sigma_x: float, sigma_y: float, x, y, p_x, p_y):
    return closed_form_constant(m, sigma_x, sigma_y) * closed_form_kernel(
        m, sigma_x, sigma_y, x, y, p_x, p_y
    )
