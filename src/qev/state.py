"""Elliptical-vortex two-mode squeezed states: parameters and spatial amplitude.

The state family is parameterized by a vorticity (topological charge) m, two
real squeezing parameters zeta_x, zeta_y with Gaussian widths
sigma_i = exp(2 zeta_i) and a vortex handedness sign.  With the canonical
coupling weights 1/(sqrt(2) sigma_i) the spatial amplitude is

    psi(x, y) = N * [x/(sqrt(2) sigma_x) +- i y/(sqrt(2) sigma_y)]^m
                  * exp(-((x/sigma_x)^2 + (y/sigma_y)^2) / 2)

where N^2 = 2^m / (pi m! sigma_x sigma_y) makes the amplitude unit-normalized.
The closed-form prefactor that accompanies the formula in the literature is
not unit-norm; it is kept only as a reference value and every evaluation uses
N (the ratio of the two is reported for traceability).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import gamma_half_integer

__all__ = [
    "QevParams",
    "psi",
    "psi_gradient",
    "intensity",
    "normalization_constant",
    "closed_form_prefactor",
    "winding_number",
]

# The origin-centred circle that ``winding_number`` samples.
WINDING_RADIUS = 0.1
WINDING_SAMPLES = 720


@dataclass(frozen=True)
class QevParams:
    """Immutable parameter set of one elliptical-vortex state."""

    m: int
    zeta_x: float
    zeta_y: float
    sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool) or self.m < 0:
            raise ConfigError(f"vorticity m must be a non-negative integer, got {self.m!r}")
        for axis, zeta in (("x", self.zeta_x), ("y", self.zeta_y)):
            if not (2.0 * zeta <= math.log(sys.float_info.max) and math.exp(2.0 * zeta) > 0.0):  # false for nan
                raise DomainError(f"width sigma_{axis} = exp(2 zeta_{axis}) is not a finite positive float at zeta_{axis} = {zeta!r}")
        if self.sign not in (+1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def from_sigma(cls, m: int, sigma_x: float, sigma_y: float, sign: int = 1) -> "QevParams":
        if not (sigma_x > 0 and sigma_y > 0):
            raise ConfigError("sigma values must be positive")
        return cls(m=m, zeta_x=0.5 * math.log(sigma_x), zeta_y=0.5 * math.log(sigma_y), sign=sign)

    @property
    def sigma_x(self) -> float:
        return math.exp(2.0 * self.zeta_x)

    @property
    def sigma_y(self) -> float:
        return math.exp(2.0 * self.zeta_y)

    def swapped(self) -> "QevParams":
        """The state with the two mode labels (x <-> y) exchanged."""
        return QevParams(m=self.m, zeta_x=self.zeta_y, zeta_y=self.zeta_x, sign=self.sign)


def _as_float_array(name: str, value):
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


@lru_cache(maxsize=256)
def _norm_constant_cached(params: QevParams) -> float:
    """Unit-norm amplitude prefactor N, exact in closed form.

    In scaled coordinates t = x/sigma_x, s = y/sigma_y the squared modulus of
    the unnormalized amplitude is sigma_x sigma_y 2^{-m} (t^2+s^2)^m
    e^{-t^2-s^2}, whose integral is sigma_x sigma_y 2^{-m} pi m!, so
    N^2 = 2^m / (pi m! sigma_x sigma_y).
    """
    return math.sqrt(2.0**params.m / (math.pi * math.factorial(params.m) * params.sigma_x * params.sigma_y))


def closed_form_prefactor(params: QevParams) -> float:
    """The literal closed-form amplitude prefactor, kept as a reference value.

    2^{m-2} / (sigma_x sigma_y Gamma(m + 1/2) sqrt(pi)).  It is not the
    unit-norm constant; see ``normalization_constant``.
    """
    return 2.0 ** (params.m - 2) / (
        params.sigma_x * params.sigma_y * gamma_half_integer(params.m) * math.sqrt(math.pi)
    )


def normalization_constant(params: QevParams) -> tuple[float, float]:
    """(n_num, formula_ratio): the unit-norm constant and its ratio to the
    closed-form reference prefactor."""
    n_num = _norm_constant_cached(params)
    return n_num, n_num / closed_form_prefactor(params)


def psi(params: QevParams, x, y):
    """Unit-normalized spatial amplitude at (x, y).

    Accepts scalars or broadcastable arrays; returns complex with the
    broadcast shape.  The vortex factor winds the phase by sign*m around the
    origin, so psi(0, 0) = 0 whenever m >= 1.
    """
    x_arr = _as_float_array("x", x)
    y_arr = _as_float_array("y", y)
    n_num = _norm_constant_cached(params)
    sx, sy = params.sigma_x, params.sigma_y
    vortex = x_arr / (math.sqrt(2.0) * sx) + 1j * params.sign * y_arr / (math.sqrt(2.0) * sy)
    gauss = np.exp(-0.5 * ((x_arr / sx) ** 2 + (y_arr / sy) ** 2))
    value = n_num * vortex**params.m * gauss
    if np.isscalar(x) and np.isscalar(y):
        return complex(value)
    return value


def psi_gradient(params: QevParams, x, y):
    """Analytic partials (d psi/dx, d psi/dy) by the product rule."""
    x_arr = _as_float_array("x", x)
    y_arr = _as_float_array("y", y)
    n_num = _norm_constant_cached(params)
    sx, sy = params.sigma_x, params.sigma_y
    m, s = params.m, params.sign
    vortex = x_arr / (math.sqrt(2.0) * sx) + 1j * s * y_arr / (math.sqrt(2.0) * sy)
    gauss = np.exp(-0.5 * ((x_arr / sx) ** 2 + (y_arr / sy) ** 2))
    if m == 0:
        dvortex = np.zeros_like(vortex)
    else:
        dvortex = m * vortex ** (m - 1)
    vm = vortex**m
    dx = n_num * gauss * (dvortex / (math.sqrt(2.0) * sx) - vm * x_arr / sx**2)
    dy = n_num * gauss * (dvortex * 1j * s / (math.sqrt(2.0) * sy) - vm * y_arr / sy**2)
    if np.isscalar(x) and np.isscalar(y):
        return complex(dx), complex(dy)
    return dx, dy


def intensity(params: QevParams, x, y):
    """|psi(x, y)|^2; non-negative, even under (x, y) -> (-x, -y)."""
    value = psi(params, x, y)
    out = np.abs(value) ** 2
    return float(out) if np.isscalar(x) and np.isscalar(y) else out


def winding_number(params: QevParams) -> int:
    """Phase winding of psi around an origin-centered circle, in units of 2 pi.

    The circle has radius WINDING_RADIUS and WINDING_SAMPLES points.  Equals
    sign*m for every m >= 1; for m = 0 the phase is flat and the winding is 0.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, WINDING_SAMPLES, endpoint=False)
    values = psi(params, WINDING_RADIUS * np.cos(theta), WINDING_RADIUS * np.sin(theta))
    phases = np.angle(values)
    steps = np.diff(np.concatenate([phases, phases[:1]]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(float(steps.sum()) / (2.0 * math.pi)))
