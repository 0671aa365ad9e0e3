"""Closed-form Wigner evaluation, slices, extrema."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qev.errors import ConfigError, NumericError
from qev.numerics import gauss_hermite_rule
from qev.oracle import oracle_slice
from qev.state import QevParams
from qev.wigner import (
    PLANES,
    Grid2D,
    PhasePoint,
    alp_argument,
    closed_form_norm_constant,
    closed_form_reference_constant,
    default_window,
    significant_extrema,
    slice_extrema,
    wigner_closed,
    wigner_slice,
)


class TestWignerClosed:
    def test_m0_unit_sigma_peak(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        assert wigner_closed(p, PhasePoint(0, 0, 0, 0)) == pytest.approx(1.0 / math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("sx,sy", [(1.0, 1.0), (5.0, 3.0), (0.5, 3.0)])
    def test_m0_factorizes_into_squeezed_vacua(self, sx, sy):
        p = QevParams.from_sigma(0, sx, sy)
        rng = np.random.default_rng(8)
        for _ in range(40):
            x, y = rng.normal(0, sx), rng.normal(0, sy)
            px, py = rng.normal(0, 1 / sx), rng.normal(0, 1 / sy)
            got = wigner_closed(p, PhasePoint(x, y, px, py))
            want = (
                math.exp(-((x / sx) ** 2) - (sx * px) ** 2) / math.pi
                * math.exp(-((y / sy) ** 2) - (sy * py) ** 2) / math.pi
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_norm_constant_sign_alternates(self):
        # K_num has the sign of (1 - rho)^m: at (5, 3), rho = 52.2 > 1, so
        # it alternates with m; at (0.5, 0.5), rho = 0.5 < 1, so it is positive
        for m in range(5):
            p = QevParams.from_sigma(m, 5.0, 3.0)
            assert math.copysign(1.0, closed_form_norm_constant(p)) == (-1.0) ** m
        assert closed_form_norm_constant(QevParams.from_sigma(3, 0.5, 0.5)) > 0.0

    @pytest.mark.parametrize("sx,sy", [(1.0, 1.0), (0.9, 0.95)])
    def test_norm_constant_matches_exact_moment_series(self, sx, sy):
        # 1 / (pi^2 K_num) = E[L_m^{-1/2}(eta^2)], eta ~ N(0, rho/2), summed
        # over the explicit Laguerre coefficients in exact arithmetic; at
        # (0.9, 0.95) rho = 1.124 and the series cancels by up to 1.5e6
        for m in range(8):
            p = QevParams.from_sigma(m, sx, sy)
            fx, fy = Fraction(p.sigma_x) ** 2, Fraction(p.sigma_y) ** 2
            rho = Fraction(1, 4) + (fx**4 + fy**4) / (fx * fy * (fx + fy))
            total = Fraction(0)
            for k in range(m + 1):
                falling = (Fraction(2 * m - 2 * j - 1, 2) for j in range(m - k))
                binom = math.prod(falling, start=Fraction(1)) / math.factorial(m - k)
                moment = math.prod(range(1, 2 * k, 2)) * (rho / 2) ** k
                total += (-1) ** k * binom / math.factorial(k) * moment
            want = 1.0 / (math.pi**2 * float(total))
            assert closed_form_norm_constant(p) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_unnormalisable_at_rho_one(self):
        # equal widths sqrt(3)/2 give rho = 1: the printed form integrates to 0
        p = QevParams.from_sigma(3, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0)
        with pytest.raises(NumericError, match="cannot be normalised"):
            closed_form_norm_constant(p)
        m0 = QevParams.from_sigma(0, math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0)
        assert closed_form_norm_constant(m0) == pytest.approx(1.0 / math.pi**2, rel=1e-15)

    def test_conditioning_bound_near_rho_one(self):
        # equal widths sigma give rho = 1/4 + sigma^2, so sigma^2 = 3/4 + d
        # puts 1 - rho at -d; the bound 3 eps rho / d crosses 1e-8 near d = 7e-8
        well = QevParams.from_sigma(3, math.sqrt(0.75 + 1e-4), math.sqrt(0.75 + 1e-4))
        assert closed_form_norm_constant(well) == pytest.approx(-4.0**3 / (math.pi**2 * 20 * 1e-12), rel=1e-6)
        ill = QevParams.from_sigma(3, math.sqrt(0.75 + 1e-10), math.sqrt(0.75 + 1e-10))
        with pytest.raises(NumericError, match=r"rho = 1\.0000000001.*exceeds 1e-08"):
            closed_form_norm_constant(ill)

    def test_reference_constant_ratio(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        ref = closed_form_reference_constant(p)
        # the literal constant includes [-2(sx^2+sy^2)]^m, negative at odd m
        assert ref == pytest.approx(2.0 ** (-1) * 6 / (math.pi**1.5 * math.gamma(3.5)) * (-68.0) ** 3, rel=1e-12)
        assert closed_form_norm_constant(p) / ref > 0  # signs agree

    def test_normalization_integral_is_one(self):
        rule = gauss_hermite_rule(32)
        for m, sx, sy in ((0, 1.0, 1.0), (1, 5.0, 3.0), (3, 5.0, 3.0), (2, 0.5, 3.0)):
            p = QevParams.from_sigma(m, sx, sy)
            k = closed_form_norm_constant(p)
            t, w = rule.nodes, rule.weights
            # matched lattice: the Gaussian is absorbed by the Hermite weight
            denom = math.sqrt(sx**2 + sy**2)
            eta = (
                (-sy / (2 * denom)) * t[:, None, None, None]
                + (-sx / (2 * denom)) * t[None, :, None, None]
                + (sy**3 / (sx * denom)) * t[None, None, :, None]
                + (sx**3 / (sy * denom)) * t[None, None, None, :]
            )
            from qev.numerics import laguerre_assoc_half

            w4 = (w[:, None, None, None] * w[None, :, None, None]
                  * w[None, None, :, None] * w[None, None, None, :])
            integral = k * float(np.sum(w4 * laguerre_assoc_half(m, eta**2)))
            assert integral == pytest.approx(1.0, abs=1e-8)

    def test_argument_nonnegative(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 4)) * np.array([5, 3, 0.2, 1 / 3])
        args = alp_argument(p, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        assert np.all(args >= 0.0)

    def test_odd_m_origin_negative(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        assert wigner_closed(p, PhasePoint(0, 0, 0, 0)) < 0.0


class TestWignerSlice:
    def test_plane_validation(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            wigner_slice(p, "qq")
        with pytest.raises(ConfigError):
            wigner_slice(p, "xy", axis_u=(0.0, 1.0, 1))

    @pytest.mark.parametrize("evaluate", [wigner_slice, oracle_slice])
    def test_both_pipelines_share_grid_checks(self, evaluate):
        p = QevParams.from_sigma(1, 1.0, 1.0)
        with pytest.raises(ConfigError, match="unknown plane"):
            evaluate(p, "qq")
        with pytest.raises(ConfigError, match="grid axes need at least 2 samples"):
            evaluate(p, "xy", axis_u=1, axis_v=9)

    def test_default_windows(self):
        p = QevParams.from_sigma(1, 5.0, 3.0)
        assert default_window(p, "x") == pytest.approx((-20.0, 20.0), rel=1e-14)
        assert default_window(p, "p_x") == pytest.approx((-4.0 / 3.0, 4.0 / 3.0), rel=1e-14)

    def test_matches_pinned_4d_evaluation(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        grid = wigner_slice(p, "xpx", axis_u=33, axis_v=33)
        u, v = grid.u_coords(), grid.v_coords()
        for i in (1, 9, 20, 31):
            for j in (0, 16, 27):
                want = wigner_closed(p, PhasePoint(x=u[j], y=0.0, p_x=v[i], p_y=0.0))
                assert grid.values[i, j] == want  # shared code path, bit-exact

    @pytest.mark.parametrize("plane", ["xy", "pxpy", "xpx", "ypy", "xpy", "ypx"])
    def test_all_planes_evaluate(self, plane):
        p = QevParams.from_sigma(2, 2.0, 1.0)
        grid = wigner_slice(p, plane, axis_u=17, axis_v=17)
        assert grid.values.shape == (17, 17)
        assert np.all(np.isfinite(grid.values))

    def test_sigma_swap_of_xy_slice(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        q = p.swapped()
        ga = wigner_slice(p, "xy", axis_u=(-12, 12, 41), axis_v=(-12, 12, 41))
        gb = wigner_slice(q, "xy", axis_u=(-12, 12, 41), axis_v=(-12, 12, 41))
        assert np.max(np.abs(ga.values - gb.values.T)) < 1e-12 * np.max(np.abs(ga.values))

    def test_rows_evaluate_independently(self):
        # the grid is one array evaluation; each row keeps the bits of the
        # shared kernel evaluated on a one-row grid
        from qev.wigner import _closed_kernel

        p = QevParams.from_sigma(2, 5.0, 3.0)
        grid = wigner_slice(p, "xpx", axis_u=65, axis_v=65)
        u, v = grid.u_coords(), grid.v_coords()
        k_num = closed_form_norm_constant(p)
        for i in range(65):
            row = k_num * _closed_kernel(p, u[None, :], 0.0, v[i : i + 1, None], 0.0)
            assert np.array_equal(grid.values[i : i + 1], row)
        assert np.array_equal(wigner_slice(p, "xpx", axis_u=65, axis_v=65).values, grid.values)

    def test_m0_xy_single_maximum(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        grid = wigner_slice(p, "xy")
        maxima = [e for e in slice_extrema(grid) if e.kind == "max"]
        assert len(maxima) == 1
        assert maxima[0].u == 0.0 and maxima[0].v == 0.0


class TestSliceExtrema:
    def test_constant_grid_empty(self):
        grid = Grid2D(plane="xy", axis_u=(0, 1, 8), axis_v=(0, 1, 8), values=np.ones((8, 8)))
        assert slice_extrema(grid) == []
        assert significant_extrema(grid) == []

    def test_single_bump(self):
        u = np.linspace(-3, 3, 31)
        vals = np.exp(-(u[None, :] ** 2) - u[:, None] ** 2)
        grid = Grid2D(plane="xy", axis_u=(-3, 3, 31), axis_v=(-3, 3, 31), values=vals)
        ext = slice_extrema(grid)
        assert len(ext) == 1 and ext[0].kind == "max"
        feats = significant_extrema(grid)
        assert len(feats) == 1 and feats[0].kind == "max"

    def test_plateau_collapses_to_centroid(self):
        vals = np.zeros((9, 9))
        vals[4, 3:6] = 1.0  # 3-cell flat ridge top
        grid = Grid2D(plane="xy", axis_u=(0, 8, 9), axis_v=(0, 8, 9), values=vals)
        ext = [e for e in slice_extrema(grid) if e.kind == "max"]
        assert len(ext) == 1
        assert ext[0].u == pytest.approx(4.0)
        assert ext[0].v == pytest.approx(4.0)

    def test_sorted_by_magnitude(self):
        vals = np.zeros((11, 11))
        vals[2, 2] = 1.0
        vals[8, 8] = -2.0
        grid = Grid2D(plane="xy", axis_u=(0, 10, 11), axis_v=(0, 10, 11), values=vals)
        ext = slice_extrema(grid)
        assert [e.kind for e in ext[:2]] == ["min", "max"]

    def test_too_small_grid_rejected(self):
        grid = Grid2D(plane="xy", axis_u=(0, 1, 4), axis_v=(0, 1, 4), values=np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            slice_extrema(grid)

    def test_m3_xpx_structure(self):
        # odd-m phase-plane slice: m minima and m+1 maxima among the
        # significant features (the raw census additionally sees sampling
        # artifacts along the tilted crests)
        p = QevParams.from_sigma(3, 5.0, 3.0)
        feats = significant_extrema(wigner_slice(p, "xpx"))
        assert sum(1 for f in feats if f.kind == "min") == 3
        assert sum(1 for f in feats if f.kind == "max") == 4


def _full_sweep_peaks(vals, ratio):
    """Reference census: the persistence sweep over every cell, with no
    early stop, as significant_extrema ran it before.  Lists stand in for
    the rank and parent arrays only to keep the test fast."""
    flat = vals.ravel()
    nv, nu = vals.shape
    order = np.argsort(flat, kind="stable")[::-1]
    rank = np.empty(flat.size, dtype=np.int64)
    rank[order] = np.arange(flat.size)
    rank = rank.tolist()
    parent = [-1] * flat.size
    birth_cell = {}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    survived = []
    for cell in order.tolist():
        i, j = divmod(cell, nu)
        older = set()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ii, jj = i + di, j + dj
                if 0 <= ii < nv and 0 <= jj < nu:
                    nb = ii * nu + jj
                    if rank[nb] < rank[cell]:
                        older.add(find(nb))
        if not older:
            parent[cell] = cell
            birth_cell[cell] = cell
            continue
        roots = sorted(older, key=lambda r: rank[r])
        main = roots[0]
        parent[cell] = main
        for other in roots[1:]:
            birth = flat[birth_cell[other]]
            pers = float(birth - flat[cell])
            if pers >= ratio * abs(birth):
                survived.append((birth_cell[other], float(birth), pers))
            parent[other] = main
    top = int(order[0])
    survived.append((birth_cell[find(top)], float(flat[top]), float(flat[top] - flat[order[-1]])))
    return survived


def _full_sweep_extrema(grid, rel_floor=1e-4, persistence_ratio=1e-2):
    """The reference census's filter: (kind, u, v, value) of every kept peak."""
    nv, nu = grid.values.shape
    scale = float(np.max(np.abs(grid.values)))
    if scale == 0.0:
        return []
    u, v = grid.u_coords(), grid.v_coords()
    out = []
    for kind, field in (("max", grid.values), ("min", -grid.values)):
        for cell, birth, pers in _full_sweep_peaks(field, persistence_ratio):
            value = float(grid.values.ravel()[cell])
            if abs(value) < rel_floor * scale or pers < persistence_ratio * abs(birth):
                continue
            i, j = divmod(int(cell), nu)
            if i in (0, nv - 1) or j in (0, nu - 1):
                continue
            out.append((kind, float(u[j]), float(v[i]), value))
    return out


def _assert_census_matches_full_sweep(grid):
    got = [(e.kind, e.u, e.v, e.value) for e in significant_extrema(grid)]
    assert sorted(got) == sorted(_full_sweep_extrema(grid))
    # |value| descending; exact ties by kind, then row (v), then column (u)
    assert got == sorted(got, key=lambda f: (-abs(f[3]), f[0], f[2], f[1]))


def _gaussian_hills(rng, nv, nu):
    """Broad positive hills with narrow negative bumps inside some of them,
    plus a faint ripple that seeds low-persistence peaks."""
    ii, jj = np.mgrid[0:nv, 0:nu].astype(float)
    vals = 1e-3 * rng.standard_normal((nv, nu))
    for _ in range(rng.integers(2, 6)):
        ci, cj = rng.uniform(0, nv), rng.uniform(0, nu)
        amp, width = rng.uniform(0.5, 2.0), rng.uniform(3.0, 9.0)
        vals += amp * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / width**2)
        if rng.random() < 0.7:
            di, dj = rng.normal(0.0, width / 3, size=2)
            depth = amp * rng.uniform(0.2, 3.0)
            vals -= depth * np.exp(-((ii - ci - di) ** 2 + (jj - cj - dj) ** 2) / (width * rng.uniform(0.15, 0.5)) ** 2)
    return vals


class TestSignificantExtremaEquivalence:
    """The early-stopped census keeps exactly the peaks of the full sweep."""

    @pytest.mark.parametrize("m", range(5))
    def test_slices_match_full_sweep(self, m):
        seen = set()
        for sx, sy in ((5.0, 3.0), (1.0, 1.0)):
            for sign in (1, -1):
                p = QevParams.from_sigma(m, sx, sy, sign=sign)
                for plane in PLANES:
                    for grid in (wigner_slice(p, plane, 65, 65), oracle_slice(p, plane, 65, 65)):
                        key = grid.values.tobytes()
                        if key not in seen:  # sign-blind slices repeat bit for bit
                            seen.add(key)
                            _assert_census_matches_full_sweep(grid)

    @pytest.mark.parametrize("seed", range(12))
    def test_gaussian_hills_with_negative_bumps(self, seed):
        rng = np.random.default_rng(seed)
        nv, nu = 37 + seed, 45
        vals = _gaussian_hills(rng, nv, nu)
        _assert_census_matches_full_sweep(Grid2D(plane="xy", axis_u=(-1, 1, nu), axis_v=(-2, 2, nv), values=vals))

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_fields_with_plateaus_and_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        nv, nu = 31, 29 + seed
        terraced = np.round(4.0 * _gaussian_hills(rng, nv, nu))
        noise = rng.integers(-2, 3, size=(nv, nu)).astype(float)
        for vals in (terraced, noise, terraced + noise):
            _assert_census_matches_full_sweep(Grid2D(plane="xy", axis_u=(0, 1, nu), axis_v=(0, 1, nv), values=vals))

    def test_exact_ties_order_by_kind_then_row_then_column(self):
        vals = np.zeros((9, 9))
        vals[6, 2] = vals[2, 6] = 1.0
        vals[2, 2] = vals[6, 6] = -1.0
        vals[4, 4] = 0.5
        grid = Grid2D(plane="xy", axis_u=(0, 8, 9), axis_v=(0, 8, 9), values=vals)
        got = [(e.kind, e.v, e.u) for e in significant_extrema(grid)]
        assert got == [("max", 2.0, 6.0), ("max", 6.0, 2.0), ("min", 2.0, 2.0), ("min", 6.0, 6.0), ("max", 4.0, 4.0)]

    def test_peak_exactly_at_the_persistence_bound_is_kept(self):
        # the 100 peak merges into the 200 hill at level 99: persistence
        # 1 == 0.01 * 100 exactly, while the 50 peak is still undecided
        vals = np.zeros((9, 9))
        vals[2, 2] = 50.0
        vals[6, 2:5] = [100.0, 99.0, 200.0]
        grid = Grid2D(plane="xy", axis_u=(0, 8, 9), axis_v=(0, 8, 9), values=vals)
        _assert_census_matches_full_sweep(grid)
        assert [e.value for e in significant_extrema(grid)] == [200.0, 100.0, 50.0]
