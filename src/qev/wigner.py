"""Closed-form Wigner evaluation and 2D slice analysis.

This module evaluates the literal closed-form Wigner expression for the
elliptical-vortex state: a factorized Gaussian envelope times an associated
Laguerre polynomial L_m^{-1/2} of one squared linear combination of scaled
phase-space coordinates,

    W = K * exp(-(X1^2 + Y1^2 + PX1^2 + PY1^2))
          * L_m^{-1/2}[ (PX2 + PY2 - X2 - Y2)^2 / (sigma_x^2 + sigma_y^2) ].

Units: phase-space momenta are canonical ([x, p] = i, vacuum variance 1/2).
The dimensionless momentum maps used by the evaluator absorb a factor
sqrt(2) relative to the raw scaled-variable definitions (PX1 = sigma_x p_x,
PX2 = sigma_y^3 p_x, and the y analogues); this is the unique unit choice
under which the m = 0 case reproduces the exact squeezed-vacuum phase-space
Gaussian, which the integral-transform oracle independently fixes.

The multiplicative constant is *not* taken from the closed-form reference K
(which is negative for odd m and does not normalize the distribution);
instead the constant enforcing a unit phase-space integral is used, which
is exact in closed form (``closed_form_norm_constant``), and the ratio to
the reference K is reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .numerics import gamma_half_integer, laguerre_assoc_half
from .state import QevParams

__all__ = [
    "PhasePoint",
    "Grid2D",
    "Extremum",
    "PLANES",
    "wigner_closed",
    "closed_form_norm_constant",
    "closed_form_reference_constant",
    "wigner_slice",
    "default_window",
    "slice_extrema",
    "significant_extrema",
    "alp_argument",
]

# Largest relative error of K_num the printed form may carry (see
# _eta_coefficients): the selftest's closed-form norm gate.
K_NUM_REL_ERR_MAX = 1e-8

# Neighbouring cells of a slice whose values differ by at most PLATEAU_TOL
# tie.  A significant extremum reaches REL_FLOOR of the slice's largest |W|
# and persists for PERSISTENCE_RATIO of its own |value|.
PLATEAU_TOL = 1e-12
REL_FLOOR = 1e-4
PERSISTENCE_RATIO = 1e-2

# plane tag -> (u axis, v axis); the complementary two coordinates are zero.
PLANES = {
    "xy": ("x", "y"),
    "pxpy": ("p_x", "p_y"),
    "xpx": ("x", "p_x"),
    "ypy": ("y", "p_y"),
    "xpy": ("x", "p_y"),
    "ypx": ("y", "p_x"),
}


@dataclass(frozen=True)
class PhasePoint:
    """A point in 4D phase space (natural units, hbar = 1)."""

    x: float
    y: float
    p_x: float
    p_y: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "p_x", "p_y"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"phase-space coordinate {name} must be finite")


@dataclass
class Grid2D:
    """A sampled 2D slice: plane tag, axis specs, and row-major values.

    ``values[i, j]`` holds the sample at v = v_i (row), u = u_j (column).
    """

    plane: str
    axis_u: tuple[float, float, int]
    axis_v: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.plane not in PLANES:
            raise ConfigError(f"unknown plane {self.plane!r}; expected one of {sorted(PLANES)}")
        for axis in (self.axis_u, self.axis_v):
            lo, hi, count = axis
            if count < 2 or not (hi > lo):
                raise ConfigError(f"bad axis spec {axis}")
        nv, nu = self.values.shape
        if (nv, nu) != (self.axis_v[2], self.axis_u[2]):
            raise ConfigError("grid values shape does not match axis counts")
        if not np.all(np.isfinite(self.values)):
            raise NumericError("grid contains non-finite values")

    def u_coords(self) -> np.ndarray:
        lo, hi, count = self.axis_u
        return np.linspace(lo, hi, count)

    def v_coords(self) -> np.ndarray:
        lo, hi, count = self.axis_v
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class Extremum:
    kind: str  # "max" | "min"
    u: float
    v: float
    value: float


def alp_argument(params: QevParams, x, y, p_x, p_y):
    """Argument handed to L_m^{-1/2}: a square over a positive denominator.

    Canonical-momentum units (the sqrt(2) of the raw maps is absorbed).
    """
    sx, sy = params.sigma_x, params.sigma_y
    x2 = sy * np.asarray(x, dtype=np.float64) / (2.0 * sx)
    y2 = sx * np.asarray(y, dtype=np.float64) / (2.0 * sy)
    px2 = sy**3 * np.asarray(p_x, dtype=np.float64)
    py2 = sx**3 * np.asarray(p_y, dtype=np.float64)
    return (px2 + py2 - x2 - y2) ** 2 / (sx**2 + sy**2)


def _closed_kernel(params: QevParams, x, y, p_x, p_y):
    """Unnormalized closed-form value: Gaussian envelope times L_m^{-1/2}.

    Shared by the 4D evaluator and the slice evaluator, so slices agree with
    pinned-coordinate 4D evaluation bitwise.
    """
    sx, sy = params.sigma_x, params.sigma_y
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p_x = np.asarray(p_x, dtype=np.float64)
    p_y = np.asarray(p_y, dtype=np.float64)
    gauss = np.exp(-((x / sx) ** 2 + (y / sy) ** 2 + (sx * p_x) ** 2 + (sy * p_y) ** 2))
    arg = alp_argument(params, x, y, p_x, p_y)
    if np.any(arg < 0.0):
        raise NumericError("Laguerre argument went negative; it is a square by construction")
    return gauss * laguerre_assoc_half(params.m, arg)


def _eta_coefficients(params: QevParams) -> tuple[np.ndarray, float]:
    """Coefficients c of eta on the matched lattice, and rho = c . c.

    With x = sigma_x t_x, y = sigma_y t_y, p_x = t_px / sigma_x and
    p_y = t_py / sigma_y (unit jacobian) the envelope is e^{-|t|^2} and the
    Laguerre argument is eta^2, eta = c . (t_x, t_y, t_px, t_py).  For
    m >= 1 the printed form integrates to zero when rho = 1.  Near it, the
    few ulps of rho that 1 - rho inherits from the rounded widths give
    K_num ~ (1 - rho)^{-m} a relative error of about m eps rho / |1 - rho|;
    above K_NUM_REL_ERR_MAX, NumericError is raised.
    """
    sx, sy = params.sigma_x, params.sigma_y
    denom = math.sqrt(sx**2 + sy**2)
    c = np.array([-sy * sx / (2.0 * sx) / denom, -sx * sy / (2.0 * sy) / denom, sy**3 / sx / denom, sx**3 / sy / denom])
    rho = float(c @ c)
    bound = params.m * math.ulp(1.0) * rho / abs(1.0 - rho) if rho != 1.0 else math.inf
    if params.m >= 1 and bound > K_NUM_REL_ERR_MAX:
        raise NumericError(
            f"the printed form cannot be normalised: rho = {rho!r}, so K_num's relative error "
            f"bound m*eps*rho/|1-rho| = {bound:.3e} exceeds {K_NUM_REL_ERR_MAX:.0e}"
        )
    return c, rho


def closed_form_norm_constant(params: QevParams) -> float:
    """The constant K_num making the closed form integrate to one.

    The kernel integrates to pi^2 E[L_m^{-1/2}(eta^2)] with
    eta ~ N(0, rho/2), so K_num = 4^m / (pi^2 C(2m, m) (1 - rho)^m).
    Its sign is that of (1 - rho)^m: negative exactly for odd m with rho > 1.
    """
    m = params.m
    _, rho = _eta_coefficients(params)
    return 4.0**m / (math.pi**2 * math.comb(2 * m, m) * (1.0 - rho) ** m)


def closed_form_reference_constant(params: QevParams) -> float:
    """The literal reference constant bundled with the closed form.

    2^{m-4} m! / (pi^{3/2} Gamma(m+1/2)) * [-2 (sigma_x^2 + sigma_y^2)]^m.
    Negative for odd m; reported only as a traceability ratio against the
    numeric normalization.
    """
    m = params.m
    base = 2.0 ** (m - 4) * math.factorial(m) / (math.pi**1.5 * gamma_half_integer(m))
    return base * (-2.0 * (params.sigma_x**2 + params.sigma_y**2)) ** m


def wigner_closed(params: QevParams, point: PhasePoint) -> float:
    """Closed-form Wigner value at a phase-space point (unit-normalized)."""
    k_num = closed_form_norm_constant(params)
    return float(k_num * _closed_kernel(params, point.x, point.y, point.p_x, point.p_y))


def default_window(params: QevParams, axis: str) -> tuple[float, float]:
    """Default plotting window: +-4 sigma_max on positions, +-4/sigma_min on momenta."""
    smax = max(params.sigma_x, params.sigma_y)
    smin = min(params.sigma_x, params.sigma_y)
    half = 4.0 * smax if axis in ("x", "y") else 4.0 / smin
    return (-half, half)


def _axis_spec(params: QevParams, axis: str, spec: tuple[float, float, int] | int | None):
    if spec is None:
        spec = 257
    if isinstance(spec, int):
        lo, hi = default_window(params, axis)
        return (lo, hi, spec)
    return tuple(spec)


def _slice_coords(params: QevParams, plane: str, axis_u, axis_v):
    """Axis specs and coordinates of a ``wigner_slice`` grid: u varies along
    columns, v along rows, and the complementary two coordinates are zero."""
    if plane not in PLANES:
        raise ConfigError(f"unknown plane {plane!r}; expected one of {sorted(PLANES)}")
    name_u, name_v = PLANES[plane]
    spec_u = _axis_spec(params, name_u, axis_u)
    spec_v = _axis_spec(params, name_v, axis_v)
    if spec_u[2] < 2 or spec_v[2] < 2:
        raise ConfigError("grid axes need at least 2 samples")
    coords = {"x": 0.0, "y": 0.0, "p_x": 0.0, "p_y": 0.0}
    coords[name_u] = np.linspace(spec_u[0], spec_u[1], spec_u[2])[None, :]
    coords[name_v] = np.linspace(spec_v[0], spec_v[1], spec_v[2])[:, None]
    return spec_u, spec_v, coords


def wigner_slice(
    params: QevParams,
    plane: str,
    axis_u: tuple[float, float, int] | int | None = None,
    axis_v: tuple[float, float, int] | int | None = None,
) -> Grid2D:
    """Evaluate the closed form on a 2D grid with the other two coordinates zero.

    ``axis_u``/``axis_v`` may be (min, max, count) triples, a bare count (the
    default window is used), or None (257-point default window).
    """
    spec_u, spec_v, coords = _slice_coords(params, plane, axis_u, axis_v)
    values = closed_form_norm_constant(params) * _closed_kernel(params, **coords)
    return Grid2D(plane=plane, axis_u=spec_u, axis_v=spec_v, values=values)


def slice_extrema(grid: Grid2D) -> list[Extremum]:
    """Interior strict local extrema by 8-neighbor comparison.

    Cells whose values tie within ``PLATEAU_TOL`` are treated as one plateau
    and collapsed to a single extremum at the plateau centroid.  Results are
    sorted by |value| descending.
    """
    nv, nu = grid.values.shape
    if nv < 5 or nu < 5:
        raise ConfigError("extrema detection needs a grid of at least 5x5")
    vals = grid.values
    u = grid.u_coords()
    v = grid.v_coords()

    center = vals[1:-1, 1:-1]
    neighbors = [
        vals[0:-2, 0:-2], vals[0:-2, 1:-1], vals[0:-2, 2:],
        vals[1:-1, 0:-2],                   vals[1:-1, 2:],
        vals[2:,   0:-2], vals[2:,   1:-1], vals[2:,   2:],
    ]
    ge = np.ones_like(center, dtype=bool)
    le = np.ones_like(center, dtype=bool)
    strict_gt = np.zeros_like(center, dtype=bool)
    strict_lt = np.zeros_like(center, dtype=bool)
    for nb in neighbors:
        diff = center - nb
        tie = np.abs(diff) <= PLATEAU_TOL
        ge &= (diff > 0) | tie
        le &= (diff < 0) | tie
        strict_gt |= diff > PLATEAU_TOL
        strict_lt |= diff < -PLATEAU_TOL
    # A candidate dominates (or ties with) all 8 neighbors and strictly beats
    # at least one, so flat regions do not register.
    max_mask = np.zeros_like(vals, dtype=bool)
    min_mask = np.zeros_like(vals, dtype=bool)
    max_mask[1:-1, 1:-1] = ge & strict_gt
    min_mask[1:-1, 1:-1] = le & strict_lt

    out: list[Extremum] = []
    for kind, mask in (("max", max_mask), ("min", min_mask)):
        seen = np.zeros_like(mask, dtype=bool)
        idx_v, idx_u = np.nonzero(mask)
        for i0, j0 in zip(idx_v, idx_u):
            if seen[i0, j0]:
                continue
            # Flood-fill the plateau: neighboring candidate cells whose
            # values agree within tolerance belong to one extremum.
            stack = [(i0, j0)]
            seen[i0, j0] = True
            cells = []
            while stack:
                i, j = stack.pop()
                cells.append((i, j))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ii, jj = i + di, j + dj
                        if (di or dj) and 0 <= ii < nv and 0 <= jj < nu:
                            if mask[ii, jj] and not seen[ii, jj] and abs(vals[ii, jj] - vals[i, j]) <= PLATEAU_TOL:
                                seen[ii, jj] = True
                                stack.append((ii, jj))
            ci = sum(c[0] for c in cells) / len(cells)
            cj = sum(c[1] for c in cells) / len(cells)
            value = float(np.mean([vals[c] for c in cells]))
            out.append(Extremum(kind=kind, u=float(np.interp(cj, np.arange(nu), u)), v=float(np.interp(ci, np.arange(nv), v)), value=value))
    out.sort(key=lambda e: abs(e.value), reverse=True)
    return out


# (row, column) steps from a cell to its 8 neighbours.
_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _births(order: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Cells all of whose in-grid 8-neighbours come later in ``order``."""
    nv, nu = shape
    rank = np.empty(shape, dtype=np.int32)
    rank.ravel()[order] = np.arange(order.size, dtype=np.int32)
    # A one-cell border ranked after every grid cell stands in for "off grid".
    padded = np.full((nv + 2, nu + 2), order.size, dtype=np.int32)
    padded[1:-1, 1:-1] = rank
    births = np.ones(shape, dtype=bool)
    for di, dj in _NEIGHBOURS:
        births &= rank < padded[1 + di : nv + 1 + di, 1 + dj : nu + 1 + dj]
    return births


def _persistence_peaks(field: np.ndarray, keep: np.ndarray) -> list[int]:
    """Flat indices of the peaks of a 2D field, among the cells in ``keep``,
    that are real hills by topological persistence.

    Cells are swept from highest to lowest in stable rank order, growing
    superlevel components with a union-find.  A component is born at a peak
    (a cell whose neighbours all come later in the sweep) and dies when it
    merges into an older (higher-born) one; its persistence is birth - merge
    level.  Peaks whose persistence is below ``PERSISTENCE_RATIO * |birth|``
    are sampling artifacts riding on a larger hill.  The global top never
    merges: it persists down to the field's minimum.

    Only the peaks in ``keep`` are decided, so the sweep stops once each of
    them has merged or can no longer fail: float subtraction is monotone, so
    a peak with birth - level >= PERSISTENCE_RATIO * |birth| at the current
    level passes at whatever level it later merges.
    """
    nu = field.shape[1]
    flat = field.ravel()
    order = np.argsort(flat, kind="stable")[::-1]
    top = int(order[0])
    survivors = []
    if keep.flat[top] and float(flat[top] - flat[order[-1]]) >= PERSISTENCE_RATIO * abs(float(flat[top])):
        survivors.append(top)
    peaks = keep & _births(order, field.shape)
    peaks.flat[top] = False
    cells = np.flatnonzero(peaks)
    if cells.size == 0:
        return survivors

    # The sweep runs on flat indices of the grid padded by one cell, so
    # neighbours are fixed offsets and border cells, never visited, are
    # never older than a grid cell.
    width = nu + 2
    offsets = [di * width + dj for di, dj in _NEIGHBOURS]

    def padded(index: np.ndarray) -> list[int]:
        return (index + 2 * (index // nu) + width + 1).tolist()

    undecided = {cell: (birth, PERSISTENCE_RATIO * abs(birth)) for cell, birth in zip(padded(cells), flat[cells].tolist())}
    watch = list(undecided.items())  # scanned once, in any order, by `w`
    w = 0
    parent = [-1] * ((field.shape[0] + 2) * width)
    born: dict[int, int] = {}
    kept: list[int] = []

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def sweep():
        # (padded cell, level) from highest to lowest.  Blocks keep the Python
        # ints and floats of an early-stopped sweep to the part it visits.
        for start in range(0, order.size, 4096):
            block = order[start : start + 4096]
            yield from zip(padded(block), flat[block].tolist())

    for k, (cell, level) in enumerate(sweep()):
        while w < len(watch):
            peak, (birth, bound) = watch[w]
            if peak in undecided and birth - level < bound:
                break
            w += 1
        else:
            break  # every peak has merged or can no longer fail
        roots = {find(cell + o) for o in offsets if parent[cell + o] >= 0}
        if not roots:
            parent[cell] = cell
            born[cell] = k
            continue
        main = min(roots, key=born.__getitem__)
        parent[cell] = main
        for other in roots:
            if other != main:
                parent[other] = main
                if other in undecided:
                    birth, bound = undecided.pop(other)
                    if birth - level >= bound:
                        kept.append(other)
    kept.extend(undecided)
    return survivors + [(c // width - 1) * nu + c % width - 1 for c in kept]


def significant_extrema(grid: Grid2D) -> list[Extremum]:
    """Structural extrema of a slice, with sampling artifacts suppressed.

    The raw strict-neighbor census (``slice_extrema``) reports every grid
    wiggle, including aliasing duplicates along tilted ridges and roundoff
    ripple in far tails.  This summary keeps one extremum per genuine hill or
    basin: an interior cell that reaches ``REL_FLOOR`` times the grid's
    maximum magnitude and whose topological persistence is at least
    ``PERSISTENCE_RATIO`` of its own height.  Sorted by |value| descending;
    exact ties go maxima first, then by row, then by column.
    """
    nv, nu = grid.values.shape
    if nv < 5 or nu < 5:
        raise ConfigError("extrema detection needs a grid of at least 5x5")
    scale = float(np.max(np.abs(grid.values)))
    if scale == 0.0:
        return []
    keep = np.abs(grid.values) >= REL_FLOOR * scale
    keep[[0, -1], :] = False  # interior features only, matching the raw census
    keep[:, [0, -1]] = False
    found = []
    for kind, field in (("max", grid.values), ("min", -grid.values)):
        for cell in _persistence_peaks(field, keep):
            i, j = divmod(cell, nu)
            found.append((-abs(float(grid.values[i, j])), kind, i, j))
    found.sort()
    u = grid.u_coords()
    v = grid.v_coords()
    return [Extremum(kind=kind, u=float(u[j]), v=float(v[i]), value=float(grid.values[i, j])) for _, kind, i, j in found]
