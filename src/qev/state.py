"""Elliptical-vortex two-mode squeezed states: parameters and spatial amplitude.

The state family is parameterized by a vorticity (topological charge) m, two
real squeezing parameters zeta_x, zeta_y with Gaussian widths
sigma_i = exp(2 zeta_i), a vortex handedness sign, and positive coupling
weights eta_i.  With the canonical choice eta_i = 1/(sqrt(2) sigma_i) the
spatial amplitude is

    psi(x, y) = N * [x/(sqrt(2) sigma_x) +- i y/(sqrt(2) sigma_y)]^m
                  * exp(-((x/sigma_x)^2 + (y/sigma_y)^2) / 2)

where N^2 = 2^m / (pi m! sigma_x sigma_y) makes the amplitude unit-normalized.
The closed-form prefactor that accompanies the formula in the literature is
not unit-norm; it is kept only as a reference value and every evaluation uses
N (the ratio of the two is reported for traceability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import gamma_half_integer

__all__ = [
    "QevParams",
    "BsCoefficients",
    "bs_coefficients",
    "psi",
    "psi_gradient",
    "intensity",
    "normalization_constant",
    "closed_form_prefactor",
    "winding_number",
]


@dataclass(frozen=True)
class QevParams:
    """Immutable parameter set of one elliptical-vortex state.

    ``eta`` of None selects the canonical coupling weights
    eta_i = 1/(sqrt(2) sigma_i); only canonical parameters feed the
    amplitude and Wigner evaluators, but arbitrary positive weights are
    accepted for describing the general state family.
    """

    m: int
    zeta_x: float
    zeta_y: float
    sign: int = 1
    eta: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool) or self.m < 0:
            raise ConfigError(f"vorticity m must be a non-negative integer, got {self.m!r}")
        if not (math.isfinite(self.zeta_x) and math.isfinite(self.zeta_y)):
            raise DomainError("squeezing parameters must be finite")
        if self.sign not in (+1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.eta is not None:
            ex, ey = self.eta
            if not (ex > 0 and ey > 0 and math.isfinite(ex) and math.isfinite(ey)):
                raise ConfigError("coupling weights eta must be positive finite reals")

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

    @property
    def eta_x(self) -> float:
        return self.eta[0] if self.eta is not None else 1.0 / (math.sqrt(2.0) * self.sigma_x)

    @property
    def eta_y(self) -> float:
        return self.eta[1] if self.eta is not None else 1.0 / (math.sqrt(2.0) * self.sigma_y)

    @property
    def is_canonical(self) -> bool:
        if self.eta is None:
            return True
        cx = 1.0 / (math.sqrt(2.0) * self.sigma_x)
        cy = 1.0 / (math.sqrt(2.0) * self.sigma_y)
        return math.isclose(self.eta[0], cx, rel_tol=1e-12) and math.isclose(
            self.eta[1], cy, rel_tol=1e-12
        )

    def require_canonical(self) -> None:
        if not self.is_canonical:
            raise ConfigError(
                "this evaluation is defined only for the canonical coupling "
                "weights eta_i = 1/(sqrt(2) sigma_i)"
            )

    def swapped(self) -> "QevParams":
        """The state with the two mode labels (x <-> y) exchanged."""
        return QevParams(m=self.m, zeta_x=self.zeta_y, zeta_y=self.zeta_x, sign=self.sign, eta=None if self.eta is None else (self.eta[1], self.eta[0]))


@dataclass(frozen=True)
class BsCoefficients:
    """Transmittivity/reflectivity pair of the two-mode coupler."""

    a_x: complex
    a_y: complex

    def unitarity_residual(self) -> float:
        """|a_x|^2 + |a_y|^2 - 1 (must vanish for a lossless coupler)."""
        return abs(self.a_x) ** 2 + abs(self.a_y) ** 2 - 1.0

    def phase_residual(self) -> float:
        """Re(conj(a_x) a_y); zero exactly when the relative phase is +-pi/2.

        The construction below keeps a_x real, so this residual vanishes for
        coupling phase phi in {0, pi} and measures the deviation otherwise.
        """
        return (self.a_x.conjugate() * self.a_y).real


def bs_coefficients(theta: float, phi: float) -> BsCoefficients:
    """Coupler coefficients (cos(theta), i e^{i phi} sin(theta)).

    theta is the accumulated coupling (coupling rate times interaction time),
    phi the coupling phase.  The modulus constraint |a_x|^2 + |a_y|^2 = 1
    holds for every input by construction.
    """
    a_x = complex(math.cos(theta), 0.0)
    a_y = 1j * complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    return BsCoefficients(a_x=a_x, a_y=a_y)


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
    params.require_canonical()
    n_num = _norm_constant_cached(params)
    return n_num, n_num / closed_form_prefactor(params)


def psi(params: QevParams, x, y):
    """Unit-normalized spatial amplitude at (x, y).

    Accepts scalars or broadcastable arrays; returns complex with the
    broadcast shape.  The vortex factor winds the phase by sign*m around the
    origin, so psi(0, 0) = 0 whenever m >= 1.
    """
    params.require_canonical()
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
    params.require_canonical()
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


def winding_number(params: QevParams, radius: float = 0.1, samples: int = 720) -> int:
    """Phase winding of psi around an origin-centered circle, in units of 2 pi.

    Equals sign*m for every m >= 1; for m = 0 the phase is flat and the
    winding is 0.
    """
    params.require_canonical()
    if radius <= 0:
        raise ConfigError("winding contour radius must be positive")
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    values = psi(params, radius * np.cos(theta), radius * np.sin(theta))
    phases = np.angle(values)
    steps = np.diff(np.concatenate([phases, phases[:1]]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(float(steps.sum()) / (2.0 * math.pi)))
