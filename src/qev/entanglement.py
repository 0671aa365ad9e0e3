"""Covariance matrices, symplectic spectra, and logarithmic negativity.

Conventions: [x, p] = i (hbar = 1), vacuum variance 1/2, coordinate order
(x, p_x, y, p_y) fixed package-wide.  A two-mode Gaussian state is separable
exactly when the smallest symplectic eigenvalue of its partially transposed
covariance matrix is >= 1/2, and the entanglement monotone is
E_N = max(0, -ln(2 nu_min)).

For vorticity m >= 1 the state itself is not Gaussian; covariance-based
reports for those states are labeled as Gaussian approximations.

The oracle pipeline's covariance integrates the wavefunction itself: every
moment integrand is a Gaussian times a polynomial of degree at most 2m + 2
per axis, so the matched Hermite lattice of order m + 2 per axis is exact,
and the fourteen moments come out of one stacked reduction over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .oracle import _lattice, oracle_covariance_entries
from .state import QevParams, psi, psi_gradient
from .wigner import _eta_coefficients

__all__ = [
    "CovarianceMatrix",
    "EntanglementReport",
    "second_moments",
    "closed_form_second_moments",
    "symplectic_eigen_pt",
    "symplectic_eigen_physical",
    "log_negativity",
    "tmsv_covariance",
    "vacuum_covariance",
    "GAUSSIAN_APPROX_NOTE",
    "COVARIANCE_ENTRIES",
]

DISCRIMINANT_CLAMP = -1e-12
PHYSICALITY_SLACK = 1e-9
FIRST_MOMENT_TOL = 1e-10
SEPARABILITY_SNAP = 1e-12
GAUSSIAN_APPROX_NOTE = "gaussian-approximation for m>0"


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 symmetrized second-moment matrix in order (x, p_x, y, p_y)."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.sigma, dtype=np.float64)
        if mat.shape != (4, 4):
            raise ConfigError("covariance matrix must be 4x4")
        if not np.all(np.isfinite(mat)):
            raise NumericError("covariance matrix contains non-finite entries")
        mat = 0.5 * (mat + mat.T)  # symmetrize exactly on construction
        mat.setflags(write=False)
        object.__setattr__(self, "sigma", mat)

    @property
    def alpha(self) -> np.ndarray:
        return self.sigma[:2, :2]

    @property
    def beta(self) -> np.ndarray:
        return self.sigma[2:, 2:]

    @property
    def mu(self) -> np.ndarray:
        return self.sigma[:2, 2:]

    def det_sigma(self) -> float:
        return float(np.linalg.det(self.sigma))

    def require_physical(self) -> None:
        """Uncertainty check: both physical symplectic eigenvalues >= 1/2.

        float64 caveat: the determinant of strongly squeezed covariances
        (entries beyond ~e^4) is conditioned like |Sigma|^4 / det Sigma, so
        genuinely physical matrices can fail the slack once squeezing
        pushes past roughly 2.5 in either mode.
        """
        nu = symplectic_eigen_physical(self)
        if min(nu) < 0.5 - PHYSICALITY_SLACK:
            raise NumericError(
                f"unphysical covariance: symplectic eigenvalue {min(nu):.12g} < 1/2"
            )


@dataclass(frozen=True)
class EntanglementReport:
    delta: float
    nu_plus: float
    nu_minus: float
    nu_min: float
    separable: bool
    log_negativity: float
    pipeline: str
    notes: tuple[str, ...] = ()


def _det2(block: np.ndarray) -> float:
    return float(block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0])


def _symplectic_pair(cov: CovarianceMatrix, transposed: bool) -> tuple[float, float]:
    sign = -2.0 if transposed else 2.0
    delta = _det2(cov.alpha) + _det2(cov.beta) + sign * _det2(cov.mu)
    det = cov.det_sigma()
    disc = delta * delta - 4.0 * det
    # The difference cancels catastrophically for (near-)degenerate spectra
    # and the square root amplifies 1e-16 noise to 1e-8, so residue at the
    # roundoff scale of delta^2 is treated as an exactly degenerate spectrum.
    noise = max(abs(DISCRIMINANT_CLAMP), 4e-14 * delta * delta)
    if disc < -noise:
        raise NumericError(f"symplectic discriminant {disc:.3e} is negative beyond roundoff")
    disc = 0.0 if disc < noise else disc
    root = math.sqrt(disc)
    hi = (delta + root) / 2.0
    if hi <= 0.0:
        raise NumericError("symplectic spectrum is not positive")
    # The smaller root via the product identity nu+^2 nu-^2 = det Sigma;
    # the difference form (delta - root)/2 cancels catastrophically when
    # delta >> det Sigma (strongly squeezed states).
    if det < -1e-12:
        raise NumericError("covariance determinant is negative")
    lo = max(det, 0.0) / hi
    return math.sqrt(hi), math.sqrt(lo)


def symplectic_eigen_pt(cov: CovarianceMatrix) -> tuple[float, float]:
    """Symplectic eigenvalues of the partial transpose, (nu_plus, nu_minus).

    nu_pm^2 = (Delta +- sqrt(Delta^2 - 4 det Sigma)) / 2 with
    Delta = det(alpha) + det(beta) - 2 det(mu); the sign flip on det(mu)
    already encodes the transpose of one mode.
    """
    return _symplectic_pair(cov, transposed=True)


def symplectic_eigen_physical(cov: CovarianceMatrix) -> tuple[float, float]:
    """Physical symplectic spectrum (same closed form with +2 det(mu))."""
    return _symplectic_pair(cov, transposed=False)


def log_negativity(
    cov: CovarianceMatrix, pipeline: str = "oracle", notes: tuple[str, ...] = ()
) -> EntanglementReport:
    """Full separability verdict and E_N = max(0, -ln(2 nu_min))."""
    cov.require_physical()
    nu_plus, nu_minus = symplectic_eigen_pt(cov)
    nu_min = min(nu_plus, nu_minus)
    if nu_min <= 0.0:
        raise NumericError("partial-transpose symplectic eigenvalue is not positive")
    # Snap eigenvalues at the separability boundary to exactly 1/2 so the
    # verdict and the monotone stay consistent under 1e-16 roundoff.
    if abs(2.0 * nu_min - 1.0) <= SEPARABILITY_SNAP:
        nu_min = 0.5
    en = max(0.0, -math.log(2.0 * nu_min))
    delta = _det2(cov.alpha) + _det2(cov.beta) - 2.0 * _det2(cov.mu)
    return EntanglementReport(
        delta=delta,
        nu_plus=nu_plus,
        nu_minus=nu_minus,
        nu_min=nu_min,
        separable=(en == 0.0),
        log_negativity=en,
        pipeline=pipeline,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Covariances of the vortex state family
# ---------------------------------------------------------------------------

# covariance entry name -> (row, column) in the (x, p_x, y, p_y) order
COVARIANCE_ENTRIES = {
    "xx": (0, 0), "xpx": (0, 1), "xy": (0, 2), "xpy": (0, 3),
    "pxpx": (1, 1), "ypx": (1, 2), "pxpy": (1, 3),
    "yy": (2, 2), "ypy": (2, 3), "pypy": (3, 3),
}


def _assemble(entries: dict[str, float]) -> CovarianceMatrix:
    mat = np.zeros((4, 4))
    for name, (i, j) in COVARIANCE_ENTRIES.items():
        mat[i, j] = entries[name]
        mat[j, i] = entries[name]
    return CovarianceMatrix(sigma=mat)


def _wavefunction_entries(params: QevParams) -> dict[str, float]:
    """First and second moments directly from psi on the minimal exact lattice.

    Position moments come from |psi|^2, momentum moments from the analytic
    gradient: <p_u^2> = int |d_u psi|^2, symmetrized <u p_u> = Im int
    conj(psi) u d_u psi, <u p_v> = Im int conj(psi) u d_v psi, and
    <p_x p_y> = Re int conj(d_x psi) d_y psi.  With x = sigma_x t and
    y = sigma_y s every integrand is e^{-t^2-s^2} times a polynomial of
    degree at most 2m + 2 per axis, so order m + 2 is exact (m + 1 is not).
    """
    (t, s), w2 = _lattice(params.m + 2, 2)
    sx, sy = params.sigma_x, params.sigma_y
    x, y = sx * t, sy * s
    # psi carries the Gaussian the weights already hold: undo it (jacobian sx*sy)
    w2 = (w2 * np.exp(t * t + s * s) * (sx * sy)).ravel()

    value = psi(params, x, y)
    dx, dy = psi_gradient(params, x, y)
    dens = (value.conjugate() * value).real
    cx, cy = value.conjugate() * dx, value.conjugate() * dy
    integrands = {
        "xx": dens * x * x,
        "yy": dens * y * y,
        "xy": dens * x * y,
        "pxpx": (dx.conjugate() * dx).real,
        "pypy": (dy.conjugate() * dy).real,
        "pxpy": (dx.conjugate() * dy).real,
        "xpx": (cx * x).imag,
        "ypy": (cy * y).imag,
        "xpy": (cy * x).imag,
        "ypx": (cx * y).imag,
        "x": dens * x,
        "y": dens * y,
        "p_x": cx.imag,
        "p_y": cy.imag,
    }
    # one reduction for all fourteen: a (14, k^2) matrix times the weights
    totals = np.stack(list(integrands.values())).reshape(len(integrands), -1) @ w2
    return dict(zip(integrands, totals.tolist()))


def second_moments(params: QevParams, method: str = "wavefunction") -> CovarianceMatrix:
    """Covariance matrix of the (unit-normalized) state.

    ``wavefunction`` integrates psi directly; ``wigner4d`` integrates the
    state's Wigner function against the quadratic observables.  Both are
    exact lattice sums; the test suite pins their agreement to relative 1e-5.

    Raises NumericError when the result violates the uncertainty bound.
    """
    if method == "wavefunction":
        entries = _wavefunction_entries(params)
    elif method == "wigner4d":
        entries = oracle_covariance_entries(params)
    else:
        raise ConfigError(f"unknown moment method {method!r}")
    first = [entries[k] for k in ("x", "y", "p_x", "p_y")]
    if max(abs(v) for v in first) > FIRST_MOMENT_TOL:
        raise NumericError(f"first moments did not vanish: {first}")
    cov = _assemble(entries)
    nu = symplectic_eigen_physical(cov)
    if min(nu) < 0.5 - 1e-6:
        raise NumericError(
            f"unphysical covariance from {method}: symplectic eigenvalue {min(nu):.9g} < 1/2"
        )
    return cov


def closed_form_second_moments(params: QevParams) -> CovarianceMatrix:
    """Covariance of the literal closed-form distribution (no physicality gate).

    In matched coordinates (t_x, t_y, t_px, t_py) the distribution is
    e^{-|t|^2} L_m^{-1/2}((c . t)^2) up to its constant, with zero first
    moments and covariance I/2 + (m / (rho - 1)) c c^T, rho = c . c.  The
    physical covariance is S M S with S = diag(sigma_x, sigma_y,
    1/sigma_x, 1/sigma_y), reordered to (x, p_x, y, p_y).

    This is the distribution being adjudicated, not the state, so the
    uncertainty bound is *checked by the caller* where required rather than
    enforced here.
    """
    c, rho = _eta_coefficients(params)
    tilt = params.m / (rho - 1.0) if params.m else 0.0
    matched = 0.5 * np.eye(4) + tilt * np.outer(c, c)
    scale = np.array([params.sigma_x, params.sigma_y, 1.0 / params.sigma_x, 1.0 / params.sigma_y])
    order = [0, 2, 1, 3]  # (x, y, p_x, p_y) -> (x, p_x, y, p_y)
    return CovarianceMatrix(sigma=(scale[:, None] * matched * scale[None, :])[np.ix_(order, order)])


def entanglement_of(params: QevParams, pipeline: str = "oracle") -> tuple[CovarianceMatrix, EntanglementReport]:
    """Covariance + report for one state through the selected pipeline.

    ``oracle`` builds the covariance from the state itself (wavefunction
    moments); ``closed-form`` builds it from the literal closed-form
    distribution, exactly.
    """
    notes = (GAUSSIAN_APPROX_NOTE,) if params.m > 0 else ()
    if pipeline == "oracle":
        cov = second_moments(params, method="wavefunction")
    elif pipeline == "closed-form":
        cov = closed_form_second_moments(params)
    else:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    return cov, log_negativity(cov, pipeline=pipeline, notes=notes)


def tmsv_covariance(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum calibration fixture: E_N = 2r exactly."""
    c = math.cosh(2.0 * r) / 2.0
    s = math.sinh(2.0 * r) / 2.0
    mat = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return CovarianceMatrix(sigma=mat)


def vacuum_covariance() -> CovarianceMatrix:
    return CovarianceMatrix(sigma=0.5 * np.eye(4))
