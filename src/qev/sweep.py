"""Squeezing-parameter sweeps of the entanglement monotone, with crossing
detection between vorticity curves.

The sweep grid is uniform in zeta_x (the width sigma_x = e^{2 zeta_x} spans
orders of magnitude, so log-domain sampling is the faithful reading) and
zeta_y follows a linear relation zeta_y = c0 + c1 * zeta_x.  The default
relation, c0 = ln(5)/4 and c1 = 1/2, reproduces the reference sweep; the
``sigma-proportional`` preset (sigma_y = sqrt(5) sigma_x) corresponds to
c1 = 1 with the same intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import GAUSSIAN_APPROX_NOTE, entanglement_of
from .errors import ConfigError, QevError
from .state import QevParams

__all__ = [
    "SweepConfig",
    "CrossingReport",
    "SweepResult",
    "run_sweep",
    "sweep_csv_lines",
    "REFERENCE_CRITICAL_SIGMA_X",
    "CONSISTENCY_FACTOR",
]

# Reference critical width the crossing location is compared against, and
# the agreement factor used for the CONSISTENT/INCONSISTENT annotation.
REFERENCE_CRITICAL_SIGMA_X = 0.002
CONSISTENCY_FACTOR = 5.0

ORDERING_TOL = 1e-12
BISECTION_TOL = 1e-4

M0_DIVERGENCE_NOTE = (
    "m=0 is an exact product of two single-mode squeezed vacua for every "
    "squeezing relation, so its log-negativity is identically zero; a "
    "nonzero constant m=0 entanglement cannot be reproduced"
)


@dataclass(frozen=True)
class SweepConfig:
    zeta_x_min: float = -4.0
    zeta_x_max: float = 2.0
    n_steps: int = 100
    c0: float = math.log(5.0) / 4.0
    c1: float = 0.5
    m_list: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    pipeline: str = "closed-form"
    sign: int = 1

    def __post_init__(self) -> None:
        if not self.zeta_x_min < self.zeta_x_max:
            raise ConfigError("zeta_x_min must be below zeta_x_max")
        if self.n_steps < 2:
            raise ConfigError("n_steps must be >= 2")
        if len(self.m_list) == 0 or len(set(self.m_list)) != len(self.m_list):
            raise ConfigError("m_list must be non-empty and distinct")
        if any(m < 0 for m in self.m_list):
            raise ConfigError("m_list entries must be non-negative")

    def params_at(self, zeta_x: float, m: int) -> QevParams:
        return QevParams(m=m, zeta_x=zeta_x, zeta_y=self.c0 + self.c1 * zeta_x, sign=self.sign)


@dataclass(frozen=True)
class CrossingReport:
    m_low: int
    m_high: int
    status: str  # FOUND | NOT_FOUND | MULTIPLE
    bracket: tuple[float, float] | None = None
    zeta_x_star: float | None = None
    sigma_x_star: float | None = None
    ordering_below: str = ""
    ordering_above: str = ""
    consistency: str | None = None  # vs. the reference critical width


@dataclass
class SweepResult:
    config: SweepConfig
    zeta_x: np.ndarray
    sigma_x: np.ndarray
    log_negativity: np.ndarray  # shape (n_steps, len(m_list))
    crossings: list[CrossingReport]
    orderings: list[str]
    annotations: list[str]
    failure: str | None = None
    n_completed: int = 0


def _en_at(config: SweepConfig, zeta_x: float, m: int) -> float:
    _, report = entanglement_of(config.params_at(zeta_x, m), pipeline=config.pipeline)
    return report.log_negativity


def _ordering_label(diff: np.ndarray, lo: int, hi: int) -> str:
    if np.all(np.abs(diff) <= ORDERING_TOL):
        return f"E_N(m={hi}) == E_N(m={lo}) within {ORDERING_TOL:g} everywhere"
    if np.all(diff >= -ORDERING_TOL):
        return f"E_N(m={hi}) >= E_N(m={lo}) everywhere"
    if np.all(diff <= ORDERING_TOL):
        return f"E_N(m={hi}) <= E_N(m={lo}) everywhere"
    return f"E_N(m={hi}) - E_N(m={lo}) changes sign"


def _side_label(value: float, lo: int, hi: int) -> str:
    if abs(value) <= ORDERING_TOL:
        return "equal"
    return f"m={hi} higher" if value > 0 else f"m={lo} higher"


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the monotone over the grid, then bracket and refine crossings.

    Points run in grid order.  A numeric failure at any point (a
    ``QevError``, or a float overflow or division by zero) stops the scan;
    the rows computed so far are retained and the failure is recorded so the
    writer can append a FAILED sentinel.
    """
    zeta = np.linspace(config.zeta_x_min, config.zeta_x_max, config.n_steps)
    sigma = np.exp(2.0 * zeta)
    en = np.full((config.n_steps, len(config.m_list)), np.nan)

    failure = None
    n_completed = 0
    for i, z in enumerate(zeta.tolist()):
        try:
            en[i] = [_en_at(config, z, m) for m in config.m_list]
        except (QevError, ArithmeticError) as exc:
            failure = f"point {i} (zeta_x={z:.6f}): {exc}"
            break
        n_completed += 1

    crossings: list[CrossingReport] = []
    orderings: list[str] = []
    annotations: list[str] = []
    if 0 in config.m_list:
        annotations.append(f"divergence: {M0_DIVERGENCE_NOTE}")
    if any(m > 0 for m in config.m_list):
        annotations.append(f"note: {GAUSSIAN_APPROX_NOTE}")

    if failure is None:
        for a, b in zip(config.m_list[:-1], config.m_list[1:]):
            ia, ib = config.m_list.index(a), config.m_list.index(b)
            diff = en[:, ib] - en[:, ia]
            orderings.append(f"pair (m={a}, m={b}): " + _ordering_label(diff, a, b))
            sign = np.sign(np.where(np.abs(diff) <= ORDERING_TOL, 0.0, diff))
            brackets = [
                (float(zeta[i]), float(zeta[i + 1]))
                for i in range(len(zeta) - 1)
                if sign[i] * sign[i + 1] < 0
            ]
            if not brackets:
                crossings.append(CrossingReport(m_low=a, m_high=b, status="NOT_FOUND"))
                continue
            status = "FOUND" if len(brackets) == 1 else "MULTIPLE"
            for lo, hi in brackets:
                g = lambda z: _en_at(config, z, b) - _en_at(config, z, a)
                g_lo = g(lo)
                z_lo, z_hi = lo, hi
                while z_hi - z_lo > BISECTION_TOL:
                    mid = 0.5 * (z_lo + z_hi)
                    g_mid = g(mid)
                    if g_lo * g_mid <= 0:
                        z_hi = mid
                    else:
                        z_lo, g_lo = mid, g_mid
                z_star = 0.5 * (z_lo + z_hi)
                s_star = math.exp(2.0 * z_star)
                ratio = s_star / REFERENCE_CRITICAL_SIGMA_X
                consistency = (
                    "CONSISTENT"
                    if 1.0 / CONSISTENCY_FACTOR <= ratio <= CONSISTENCY_FACTOR
                    else "INCONSISTENT"
                )
                crossings.append(
                    CrossingReport(
                        m_low=a,
                        m_high=b,
                        status=status,
                        bracket=(lo, hi),
                        zeta_x_star=z_star,
                        sigma_x_star=s_star,
                        ordering_below=_side_label(g(lo), a, b),
                        ordering_above=_side_label(g(hi), a, b),
                        consistency=consistency,
                    )
                )

    return SweepResult(
        config=config,
        zeta_x=zeta,
        sigma_x=sigma,
        log_negativity=en,
        crossings=crossings,
        orderings=orderings,
        annotations=annotations,
        failure=failure,
        n_completed=n_completed,
    )


def sweep_csv_lines(result: SweepResult, extra_meta: dict | None = None) -> list[str]:
    """The CSV serialization: header metadata, data rows, crossing trailer."""
    from .formats import FORMAT_VERSION, _meta_lines, fmt

    cfg = result.config
    lines = [FORMAT_VERSION, "# kind=sweep", f"# pipeline={cfg.pipeline}"]
    lines.append(
        f"# relation zeta_y = c0 + c1*zeta_x with c0={fmt(cfg.c0)} c1={fmt(cfg.c1)}"
    )
    lines += _meta_lines({"m_list": ",".join(map(str, cfg.m_list)), "sign": f"{cfg.sign:+d}", "n_steps": cfg.n_steps,
                          "crossing_reference_sigma_x": REFERENCE_CRITICAL_SIGMA_X, **(extra_meta or {})})
    for note in result.annotations:
        lines.append(f"# {note}")
    for ordering in result.orderings:
        lines.append(f"# ordering {ordering}")
    header = ["zeta_x", "sigma_x"] + [f"E_N_m{m}" for m in cfg.m_list]
    lines.append(",".join(header))
    for i in range(result.n_completed):
        row = [fmt(result.zeta_x[i]), fmt(result.sigma_x[i])]
        row += [fmt(v) for v in result.log_negativity[i]]
        lines.append(",".join(row))
    if result.failure is not None:
        lines.append(f"FAILED,{result.failure}")
    for cr in result.crossings:
        parts = [f"# crossing m_low={cr.m_low} m_high={cr.m_high} status={cr.status}"]
        if cr.bracket is not None:
            parts.append(
                f"bracket=[{fmt(cr.bracket[0])},{fmt(cr.bracket[1])}] "
                f"zeta_x_star={fmt(cr.zeta_x_star)} sigma_x_star={fmt(cr.sigma_x_star)} "
                f"below={cr.ordering_below} above={cr.ordering_above} "
                f"vs_reference={cr.consistency}"
            )
        lines.append(" ".join(parts))
    return lines
