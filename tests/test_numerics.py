"""Special functions and quadrature primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qev.errors import ConfigError, DomainError, NumericError
from qev.numerics import (
    gamma_half_integer,
    gauss_hermite_rule,
    laguerre_assoc_half,
)

SQRT_PI = math.sqrt(math.pi)


def explicit_laguerre_half(m, x):
    """Independent oracle: explicit series with exact rational coefficients."""
    total = np.zeros_like(np.asarray(x, dtype=float))
    for k in range(m + 1):
        binom = Fraction(1)
        for j in range(1, m - k + 1):
            binom *= Fraction(2 * (m - j) + 1, 2 * j)
        total = total + float(Fraction((-1) ** k, math.factorial(k)) * binom) * np.asarray(x, float) ** k
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_assoc_half(0, 7.3) == 1.0

    def test_degree_one(self):
        # L_1^{-1/2}(x) = 1/2 - x
        assert laguerre_assoc_half(1, 2.0) == pytest.approx(-1.5, rel=1e-15)

    def test_degree_two(self):
        # x^2/2 - (a+2)x + (a+1)(a+2)/2 at a = -1/2, x = 1
        assert laguerre_assoc_half(2, 1.0) == pytest.approx(-0.625, rel=1e-15)

    @pytest.mark.parametrize("m", range(6))
    def test_recurrence_matches_explicit_series(self, m):
        rng = np.random.default_rng(99)
        x = rng.uniform(-50.0, 50.0, size=100)
        got = laguerre_assoc_half(m, x)
        want = explicit_laguerre_half(m, x)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12

    def test_vectorized_matches_scalar(self):
        x = np.array([0.0, 1.5, -33.0])
        vec = laguerre_assoc_half(4, x)
        assert vec.shape == (3,)
        for xi, vi in zip(x, vec):
            assert laguerre_assoc_half(4, float(xi)) == vi

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            laguerre_assoc_half(2, float("nan"))
        with pytest.raises(DomainError):
            laguerre_assoc_half(2, np.array([1.0, float("inf")]))

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            laguerre_assoc_half(-1, 0.5)


class TestGammaHalfInteger:
    def test_known_values(self):
        assert gamma_half_integer(0) == pytest.approx(SQRT_PI, abs=0)
        assert gamma_half_integer(1) == pytest.approx(SQRT_PI / 2.0, abs=0)
        assert gamma_half_integer(3) == pytest.approx(15.0 / 8.0 * SQRT_PI, rel=1e-15)

    @pytest.mark.parametrize("m", range(11))
    def test_against_gamma(self, m):
        assert gamma_half_integer(m) == pytest.approx(math.gamma(m + 0.5), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_half_integer(-2)


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == pytest.approx([SQRT_PI], rel=1e-15)

    def test_order_two(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-15)
        assert rule.weights == pytest.approx([SQRT_PI / 2] * 2, rel=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 128])
    def test_weight_sum(self, order):
        rule = gauss_hermite_rule(order)
        assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("order", [5, 16, 64])
    def test_even_monomial_exactness(self, order):
        rule = gauss_hermite_rule(order)
        for two_k in range(0, 2 * order - 1, 2):
            k = two_k // 2
            want = gamma_half_integer(k)  # integral t^{2k} e^{-t^2} = (2k-1)!!/2^k sqrt(pi)
            got = float(np.sum(rule.weights * rule.nodes**two_k))
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", [3, 16, 65])
    def test_symmetry_exact(self, order):
        rule = gauss_hermite_rule(order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_order_bounds(self):
        with pytest.raises(ConfigError):
            gauss_hermite_rule(0)
        with pytest.raises(ConfigError):
            gauss_hermite_rule(513)

    def test_float64_breakdown_is_reported(self):
        # beyond ~370 the extreme-node weights are not representable
        with pytest.raises(NumericError):
            gauss_hermite_rule(512)

    def test_rules_are_cached_and_frozen(self):
        rule = gauss_hermite_rule(32)
        assert gauss_hermite_rule(32) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

