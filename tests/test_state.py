"""State parameters and spatial amplitude."""

import math

import numpy as np
import pytest

from qev.errors import ConfigError, DomainError
from qev.numerics import gauss_hermite_rule
from qev.state import (
    QevParams,
    closed_form_prefactor,
    intensity,
    normalization_constant,
    psi,
    psi_gradient,
    winding_number,
)

SIGMA_GRID = (0.5, 1.0, 3.0, 5.0)


def quad_norm(params, order=64):
    """Independent normalization oracle: plain 2D tensor quadrature of |psi|^2."""
    rule = gauss_hermite_rule(order)
    sx, sy = params.sigma_x, params.sigma_y
    x = sx * rule.nodes[:, None]
    y = sy * rule.nodes[None, :]
    w2 = rule.weights[:, None] * rule.weights[None, :] * sx * sy
    corr = np.exp(rule.nodes[:, None] ** 2 + rule.nodes[None, :] ** 2)
    return float(np.sum(w2 * corr * intensity(params, x, y)))


class TestQevParams:
    def test_sigma_derivation(self):
        p = QevParams(m=2, zeta_x=0.3, zeta_y=-0.1)
        assert p.sigma_x == pytest.approx(math.exp(0.6), rel=1e-15)
        assert p.sigma_y == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            QevParams(m=-1, zeta_x=0.0, zeta_y=0.0)
        with pytest.raises(ConfigError):
            QevParams(m=1, zeta_x=0.0, zeta_y=0.0, sign=2)
        with pytest.raises(DomainError):
            QevParams(m=1, zeta_x=float("inf"), zeta_y=0.0)

    @pytest.mark.parametrize("zeta", [354.9, -372.6, float("nan"), float("-inf")])
    def test_width_outside_float_range(self, zeta):
        # exp(2 zeta) overflows above ~354.89 and underflows to 0 below ~-372.57
        with pytest.raises(DomainError, match="width sigma_y"):
            QevParams(m=1, zeta_x=0.0, zeta_y=zeta)

    def test_widths_at_float_range_edges(self):
        p = QevParams(m=1, zeta_x=354.8, zeta_y=-372.5)
        assert math.isfinite(p.sigma_x) and p.sigma_y > 0.0


class TestPsi:
    def test_vortex_core_null(self):
        p = QevParams.from_sigma(1, 2.0, 0.7)
        assert psi(p, 0.0, 0.0) == 0.0

    def test_m0_peak_value(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        assert abs(psi(p, 0.0, 0.0)) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_winding_m2(self):
        p = QevParams.from_sigma(2, 5.0, 3.0)
        assert winding_number(p) == 2

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_winding_equals_sign_m(self, m, sign):
        p = QevParams.from_sigma(m, 3.0, 0.5, sign=sign)
        assert winding_number(p) == (sign * m if m else 0)

    def test_nonfinite_rejected(self):
        p = QevParams.from_sigma(1, 1.0, 1.0)
        with pytest.raises(DomainError):
            psi(p, float("nan"), 0.0)


class TestNormalization:
    def test_m0_unit_sigma(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        n_num, _ = normalization_constant(p)
        assert n_num == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_m0_widths(self):
        p = QevParams.from_sigma(0, 5.0, 3.0)
        n_num, _ = normalization_constant(p)
        assert n_num == pytest.approx(1.0 / math.sqrt(15.0 * math.pi), rel=1e-12)

    def test_order_doubling_gate(self):
        # the closed-form N gives unit norm under a 2D rule and its doubling
        p = QevParams.from_sigma(4, 5.0, 0.5)
        a = quad_norm(p, order=64)
        b = quad_norm(p, order=128)
        assert abs(a - b) < 1e-10
        assert abs(a - 1.0) < 1e-10

    def test_reference_prefactor_ratio_reported(self):
        p = QevParams.from_sigma(0, 1.0, 1.0)
        n_num, ratio = normalization_constant(p)
        assert ratio == pytest.approx(n_num / closed_form_prefactor(p), rel=1e-15)
        # the literal closed-form constant is not the unit-norm constant
        assert abs(ratio - 1.0) > 0.1

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("sx", SIGMA_GRID)
    @pytest.mark.parametrize("sy", SIGMA_GRID)
    def test_unit_norm_across_family(self, m, sx, sy):
        p = QevParams.from_sigma(m, sx, sy)
        assert quad_norm(p) == pytest.approx(1.0, abs=1e-8)


class TestGradient:
    def test_m0_origin(self):
        p = QevParams.from_sigma(0, 1.0, 2.0)
        gx, gy = psi_gradient(p, 0.0, 0.0)
        assert gx == 0.0 and gy == 0.0

    def test_m1_origin_exact(self):
        p = QevParams.from_sigma(1, 5.0, 3.0)
        n_num, _ = normalization_constant(p)
        gx, gy = psi_gradient(p, 0.0, 0.0)
        assert gx == pytest.approx(n_num / (math.sqrt(2) * 5.0), rel=1e-12)
        assert gy == pytest.approx(1j * n_num / (math.sqrt(2) * 3.0), rel=1e-12)

    @pytest.mark.parametrize("m,sx,sy", [(0, 1, 1), (1, 5, 3), (2, 0.5, 3), (5, 3, 0.5)])
    def test_finite_difference_match(self, m, sx, sy):
        p = QevParams.from_sigma(m, float(sx), float(sy))
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 20:
            x = float(rng.uniform(-2 * sx, 2 * sx))
            y = float(rng.uniform(-2 * sy, 2 * sy))
            if abs(psi(p, x, y)) < 1e-6:  # stay away from nodal lines
                continue
            checked += 1
            hx, hy = 1e-5 * sx, 1e-5 * sy
            gx, gy = psi_gradient(p, x, y)
            fx = (psi(p, x + hx, y) - psi(p, x - hx, y)) / (2 * hx)
            fy = (psi(p, x, y + hy) - psi(p, x, y - hy)) / (2 * hy)
            scale = max(abs(gx), abs(gy))
            assert abs(gx - fx) / scale < 1e-6
            assert abs(gy - fy) / scale < 1e-6


class TestIntensity:
    def test_core_zero(self):
        assert intensity(QevParams.from_sigma(3, 1.0, 1.0), 0.0, 0.0) == 0.0

    def test_sigma_swap_symmetry(self):
        p = QevParams.from_sigma(2, 5.0, 3.0)
        q = p.swapped()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-8, 8, size=(50, 2))
        a = intensity(p, pts[:, 0], pts[:, 1])
        b = intensity(q, pts[:, 1], pts[:, 0])
        assert np.max(np.abs(a - b)) < 1e-14

    def test_parity(self):
        p = QevParams.from_sigma(3, 2.0, 0.8)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-4, 4, size=(50, 2))
        a = intensity(p, pts[:, 0], pts[:, 1])
        b = intensity(p, -pts[:, 0], -pts[:, 1])
        assert np.max(np.abs(a - b)) < 1e-16

    def test_quadrature_normalization(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        assert quad_norm(p) == pytest.approx(1.0, abs=1e-8)
