"""The integral-transform oracle: values, norms, purity, marginals,
closed-form adjudication."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import laguerre as npl

from qev import oracle
from qev.errors import ConfigError
from qev.numerics import gauss_hermite_rule
from qev.oracle import (
    MOMENTUM_CAP_SIGMA,
    _block_points,
    _exact_wigner,
    marginal_check,
    oracle_covariance_entries,
    sample_phase_points,
    transform_points,
    validate_closed_form,
    wigner_cross_purity,
    wigner_norm,
    wigner_purity,
    wigner_transform,
)
from qev.state import QevParams, _norm_constant_cached
from qev.wigner import PhasePoint, closed_form_norm_constant

SIGMA_PAIRS = [(0.5, 0.5), (0.5, 3.0), (1.0, 1.0), (3.0, 5.0), (5.0, 3.0), (5.0, 5.0)]


def rotated_mode_wigner(params, x, y, px, py):
    """Independent closed form from the rotated-mode Fock decomposition.

    In scaled coordinates u = x/sx, v = y/sy, qu = sx*px, qv = sy*py the
    state is a number state of one rotated mode times the vacuum of the
    other, giving W = ((-1)^m/pi^2) e^{-(u^2+v^2+qu^2+qv^2)}
    L_m[(u + s*qv)^2 + (v - s*qu)^2].  Evaluated through numpy's Laguerre
    series rather than the package's recurrence; m <= ~10 only.
    """
    sx, sy, m, s = params.sigma_x, params.sigma_y, params.m, params.sign
    u, v, qu, qv = x / sx, y / sy, sx * px, sy * py
    arg = (u + s * qv) ** 2 + (v - s * qu) ** 2
    lag = npl.lagval(arg, [0.0] * m + [1.0])
    return ((-1.0) ** m / math.pi**2) * math.exp(-(u * u + v * v + qu * qu + qv * qv)) * lag


def quadrature_transform(params, pts, order):
    """Reference: the defining transform by an order x order Gauss-Hermite
    rule, one oscillatory integrand per point.  The u and v integration
    variables are scaled to the state's Gaussian widths, under which the
    Gaussian part cancels against the Hermite weight."""
    rule = gauss_hermite_rule(order)
    sx, sy, m, s = params.sigma_x, params.sigma_y, params.m, params.sign
    t, w = rule.nodes, rule.weights
    u = (sx * t)[:, None]
    v = (sy * t)[None, :]
    a = 1.0 / (math.sqrt(2.0) * sx)
    b = 1.0 / (math.sqrt(2.0) * sy)
    w2 = w[:, None] * w[None, :]
    out = np.empty(len(pts), dtype=complex)
    for i, (x, y, px, py) in enumerate(pts):
        left = (a * (x + u) - 1j * s * b * (y + v)) ** m
        right = (a * (x - u) + 1j * s * b * (y - v)) ** m
        node_sum = np.sum(w2 * left * right * np.exp(2j * (u * px + v * py)))
        envelope = math.exp(-((x / sx) ** 2) - (y / sy) ** 2)
        out[i] = (sx * sy * _norm_constant_cached(params) ** 2 / math.pi**2) * envelope * node_sum
    return out


def exact_reference(params, pts):
    """Exact W at each point, and a bound on the transform's node terms there.

    W is the Laguerre-Gauss form ((-1)^m / pi^2) e^{-Q} L_m(arg), with L_m
    summed in exact integer arithmetic at the exact values of the float
    scaled coordinates and rounded once; only e^{-Q} is a float.  The second
    array is e^{-Q} e_m(arg) / pi^2, with e_m(x) = sum_{k <= m} x^k / k!: a
    bound on the absolute sum of the shifted-contour rule's node terms:
    |L R| <= (arg/2 + |zeta|^2)^m at a node zeta, whose Gaussian mean times
    the normalisation 2^m / m! is e_m(arg).
    """
    sx, sy, m = params.sigma_x, params.sigma_y, params.m
    lag_coeffs = [math.comb(m, k) * math.perm(m, m - k) for k in range(m + 1)]
    exp_coeffs = [math.perm(m, m - k) for k in range(m + 1)]
    out = np.empty((2, len(pts)))
    for i, (x, y, p_x, p_y) in enumerate(pts):
        # the scaled coordinates as integers over one power-of-two denominator
        ratios = [v.as_integer_ratio() for v in (x / sx, y / sy, sx * p_x, sy * p_y)]
        den = max(d for _, d in ratios)
        t, s, q_t, q_s = (n * (den // d) for n, d in ratios)
        q = t * t + s * s + q_t * q_t + q_s * q_s  # Q den^2
        num = q + 2 * params.sign * (t * q_s - s * q_t)  # arg den^2
        den *= den
        # m! den^m L_m(num/den) and m! den^m e_m(num/den) by Horner
        lag = exp_m = power = 1
        for k in range(m - 1, -1, -1):
            power *= den
            lag = -lag * num + lag_coeffs[k] * power
            exp_m = exp_m * num + exp_coeffs[k] * power
        gauss, scale = math.exp(-q / den).as_integer_ratio()
        scale *= math.factorial(m) * power
        out[:, i] = (-1) ** m * lag * gauss / scale, exp_m * gauss / scale
    return out / math.pi**2


def cap_points(params, count, seed):
    """Sampled phase points plus points with both momenta at the validated cap."""
    cap = MOMENTUM_CAP_SIGMA / min(params.sigma_x, params.sigma_y)
    pts = sample_phase_points(params, count, seed)
    corners = pts[:8].copy()
    corners[:, 2:] = cap * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]] * 2)
    return np.vstack([pts, corners])


class TestTransform:
    def test_vacuum_origin(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        val = wigner_transform(p, PhasePoint(0, 0, 0, 0))
        assert val == pytest.approx(1.0 / math.pi**2, abs=1e-9)

    @pytest.mark.parametrize("sx,sy", [(1.0, 1.0), (5.0, 3.0), (0.5, 2.0)])
    def test_m0_is_product_of_squeezed_vacua(self, sx, sy):
        p = QevParams.from_sigma(0, sx, sy)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x, y = rng.normal(0, sx), rng.normal(0, sy)
            px, py = rng.normal(0, 0.7 / sx), rng.normal(0, 0.7 / sy)
            want = (
                math.exp(-((x / sx) ** 2) - (sx * px) ** 2) / math.pi
                * math.exp(-((y / sy) ** 2) - (sy * py) ** 2) / math.pi
            )
            assert wigner_transform(p, PhasePoint(x, y, px, py)) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_rotated_mode_closed_form(self, m, sign):
        p = QevParams.from_sigma(m, 5.0, 3.0, sign=sign)
        rng = np.random.default_rng(m * 10 + sign)
        for _ in range(8):
            x, y = rng.normal(0, 4.0), rng.normal(0, 2.5)
            px, py = rng.normal(0, 0.15), rng.normal(0, 0.25)
            got = wigner_transform(p, PhasePoint(x, y, px, py))
            want = rotated_mode_wigner(p, x, y, px, py)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_direct_and_exact_paths_agree(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 4)) * np.array([5, 3, 0.2, 1 / 3])
        direct = transform_points(p, pts, check_reality=False)
        exact = _exact_wigner(p, *pts.T)
        assert np.max(np.abs(direct.real - exact)) < 1e-13
        assert np.max(np.abs(direct.imag)) < 1e-12

    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sx,sy", [(0.5, 3.0), (1.0, 1.0), (5.0, 3.0)])
    def test_exact_evaluator_matches_transform(self, m, sign, sx, sy):
        p = QevParams.from_sigma(m, sx, sy, sign=sign)
        pts = sample_phase_points(p, 300, seed=100 + m)
        want = transform_points(p, pts).real
        np.testing.assert_allclose(_exact_wigner(p, *pts.T), want, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sx,sy", [(1.0, 1.0), (5.0, 3.0), (3.0, 5.0)])
    def test_sum_matches_quadrature_reference(self, m, sign, sx, sy):
        # a 96^2 rule resolves the kernel e^{2i a t} up to the cap here, where
        # |a| = sigma |p| <= 4 sigma_max / sigma_min = 20/3
        p = QevParams.from_sigma(m, sx, sy, sign=sign)
        pts = cap_points(p, 16, seed=200 + m)
        want = quadrature_transform(p, pts, 96)
        got = transform_points(p, pts)
        scale = np.max(np.abs(want.real))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_block_size_does_not_change_bits(self, monkeypatch):
        p = QevParams.from_sigma(5, 5.0, 3.0, sign=-1)
        pts = cap_points(p, 40, seed=4)
        full = transform_points(p, pts, check_reality=False)
        assert _block_points(p.m) >= len(pts)
        per_point = 16 * (p.m + 1) * (2 * (p.m + 1) + 10)
        for block in (1, 7, 16):
            monkeypatch.setattr(oracle, "TRANSFORM_BLOCK_BYTES", block * per_point)
            assert _block_points(p.m) == block
            blocked = transform_points(p, pts, check_reality=False)
            assert blocked.tobytes() == full.tobytes()

    def test_reality_enforced(self):
        p = QevParams.from_sigma(2, 1.0, 1.0)
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 4))
        pts[:, 2:] = np.clip(pts[:, 2:], -4, 4)
        vals = transform_points(p, pts, check_reality=False)
        assert np.max(np.abs(vals.imag)) < 1e-9

    def test_bad_points_shape(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            transform_points(p, np.zeros((3, 3)))

    def test_rule_order_counts_hermite_terms(self):
        # one exact (m+1)-node rule at every momentum: no order escalation
        p = QevParams.from_sigma(1, 5.0, 3.0)
        rep = validate_closed_form(p, 50, seed=3)
        assert rep.rule_orders == (2,)
        assert {r.rule_order for r in rep.records} == {2}

    def test_block_estimator_bounds_memory(self, monkeypatch):
        # only the estimator runs on the oversized cases: nothing is allocated
        for m in (0, 1, 5, 8, 100):
            block = _block_points(m)
            assert block >= 1
            assert block * 16 * (m + 1) * (2 * (m + 1) + 10) <= oracle.TRANSFORM_BLOCK_BYTES
        with pytest.raises(ConfigError, match="block budget"):
            _block_points(10**4)
        monkeypatch.setattr(oracle, "TRANSFORM_BLOCK_BYTES", 100)
        with pytest.raises(ConfigError, match="block budget"):
            transform_points(QevParams.from_sigma(1, 1.0, 1.0), np.zeros((1, 4)))

    def test_block_peak_memory_within_budget(self):
        for m in (0, 2, 5, 40):
            p = QevParams.from_sigma(m, 5.0, 3.0)
            pts = np.random.default_rng(m).normal(size=(_block_points(m), 4))
            transform_points(p, pts[:1])  # build the rule outside the trace
            tracemalloc.start()
            try:
                oracle._shifted_contour_sum(p, pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= oracle.TRANSFORM_BLOCK_BYTES

    @pytest.mark.parametrize("m", range(41))
    def test_sum_matches_exact_reference(self, m):
        # The rule is exact; its roundoff is under (m + 1) eps times the
        # absolute sum of its node terms (measured: under 0.2 of that up to
        # m = 40).  That sum is of the size of peak |W|, so 1e-11 of peak
        # holds, except near the points where it grows like 2^m (see
        # transform_points); 13 of these 5,248 points are there.
        eps = np.finfo(float).eps
        for sign in (1, -1):
            for sx, sy in ((5.0, 3.0), (1.0, 1.0), (0.05, 0.1), (100.0, 0.01)):
                p = QevParams.from_sigma(m, sx, sy, sign=sign)
                pts = cap_points(p, 8, seed=300 + m)
                want, terms = exact_reference(p, pts)
                err = np.abs(transform_points(p, pts).real - want)
                assert np.all(err <= 1e-11 / math.pi**2 + (m + 1) * eps * terms)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [0, 5, 40])
    @pytest.mark.parametrize("sx,sy", [(100.0, 0.01), (0.01, 100.0)])
    def test_cap_corners_finite_at_extreme_anisotropy(self, m, sx, sy):
        # at the corners |L R| ~ G^m while e^{-G} underflows (G ~ 3e9)
        p = QevParams.from_sigma(m, sx, sy)
        pts = cap_points(p, 8, seed=m)
        got = transform_points(p, pts).real
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - exact_reference(p, pts)[0])) <= 1e-11 / math.pi**2


class TestNormAndPurity:
    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("sx,sy", SIGMA_PAIRS)
    def test_unit_norm(self, m, sx, sy):
        p = QevParams.from_sigma(m, sx, sy)
        assert wigner_norm(p) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("sx,sy", [(1.0, 1.0), (5.0, 3.0), (0.5, 3.0)])
    def test_unit_purity(self, m, sx, sy):
        p = QevParams.from_sigma(m, sx, sy)
        assert wigner_purity(p) == pytest.approx(1.0, abs=1e-6)

    def test_mixture_purity_below_one(self):
        a = QevParams.from_sigma(0, 2.0, 1.5)
        b = QevParams.from_sigma(2, 2.0, 1.5)
        cross = wigner_cross_purity(a, b)
        mix = 0.25 * (wigner_purity(a) + wigner_purity(b) + 2.0 * cross)
        assert mix < 1.0 - 1e-3

    def test_cross_purity_requires_equal_widths(self):
        a = QevParams.from_sigma(0, 2.0, 1.5)
        b = QevParams.from_sigma(0, 1.0, 1.5)
        with pytest.raises(ConfigError):
            wigner_cross_purity(a, b)

    def test_closed_form_norm_path_recovers_constant(self):
        # at m = 0 the printed kernel is the bare envelope, of integral pi^2
        for sx, sy in ((5.0, 3.0), (0.5, 0.5), (1.0, 1.0)):
            p = QevParams.from_sigma(0, sx, sy)
            assert closed_form_norm_constant(p) == pytest.approx(1.0 / math.pi**2, rel=1e-15)


class TestMoments:
    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sx,sy", [(0.5, 3.0), (5.0, 3.0)])
    def test_covariance_is_scaled_fock_covariance(self, m, sign, sx, sy):
        # S V S: the circular-mode Fock covariance V under the local scaling S
        p = QevParams.from_sigma(m, sx, sy, sign=sign)
        v = np.diag([(m + 1) / 2.0] * 4)
        v[0, 3] = v[3, 0] = sign * m / 2.0
        v[1, 2] = v[2, 1] = -sign * m / 2.0
        scale = np.diag([sx, 1 / sx, sy, 1 / sy])
        want = scale @ v @ scale
        e = oracle_covariance_entries(p)
        got = np.array([
            [e["xx"], e["xpx"], e["xy"], e["xpy"]],
            [e["xpx"], e["pxpx"], e["ypx"], e["pxpy"]],
            [e["xy"], e["ypx"], e["yy"], e["ypy"]],
            [e["xpy"], e["pxpy"], e["ypy"], e["pypy"]],
        ])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert max(abs(e[k]) for k in ("x", "y", "p_x", "p_y")) <= 1e-12 * np.max(np.abs(want))


class TestMarginal:
    def test_m0_tight(self):
        rep = marginal_check(QevParams.from_sigma(0, 1.0, 1.0))
        assert rep.max_abs_deviation < 1e-8

    def test_m3_within_tolerance(self):
        rep = marginal_check(QevParams.from_sigma(3, 5.0, 3.0))
        assert rep.max_abs_deviation < 1e-6


class TestValidation:
    def test_m0_all_match(self):
        p = QevParams.from_sigma(0, 2.0, 0.7)
        rep = validate_closed_form(p, 100, seed=123)
        assert rep.n_match == 100 and rep.n_mismatch == 0
        assert rep.max_rel_err < 1e-6

    def test_m1_outcome_recorded_not_presumed(self):
        p = QevParams.from_sigma(1, 1.0, 1.0)
        rep = validate_closed_form(p, 50, seed=123)
        assert rep.n_match + rep.n_mismatch == 50
        assert all(r.verdict in ("MATCH", "MISMATCH") for r in rep.records)
        assert rep.convergence_delta < 1e-8

    def test_same_seed_identical(self):
        p = QevParams.from_sigma(2, 5.0, 3.0)
        a = validate_closed_form(p, 40, seed=7)
        b = validate_closed_form(p, 40, seed=7)
        assert [r.oracle_value for r in a.records] == [r.oracle_value for r in b.records]
        assert [r.closed_value for r in a.records] == [r.closed_value for r in b.records]

    def test_point_sampler_is_counter_based(self):
        p = QevParams.from_sigma(1, 5.0, 3.0)
        full = sample_phase_points(p, 10, seed=99)
        tail = sample_phase_points(p, 4, seed=99)
        assert np.array_equal(full[:4], tail)  # point i depends only on (seed, i)
        cap = 4.0 / 3.0
        assert np.all(np.abs(full[:, 2:]) <= cap)

    def test_bad_config(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            validate_closed_form(p, 0, seed=1)
        with pytest.raises(ConfigError):
            validate_closed_form(p, 5, seed=1, tol=-1.0)
