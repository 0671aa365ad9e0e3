"""Covariance assembly, symplectic spectra, logarithmic negativity."""

import math

import numpy as np
import pytest

from qev import entanglement
from qev.cli import main
from qev.entanglement import (
    GAUSSIAN_APPROX_NOTE,
    CovarianceMatrix,
    closed_form_second_moments,
    entanglement_of,
    log_negativity,
    second_moments,
    symplectic_eigen_physical,
    symplectic_eigen_pt,
    tmsv_covariance,
    vacuum_covariance,
)
from qev.errors import ConfigError, NumericError
from qev.numerics import gauss_hermite_rule, laguerre_assoc_half
from qev.state import QevParams, psi, psi_gradient
from qev.sweep import SweepConfig
from qev.wigner import alp_argument

SIGMA_GRID = (0.5, 1.0, 3.0, 5.0)


class TestCovarianceMatrix:
    def test_symmetrized_on_construction(self):
        raw = np.diag([1.0, 1.0, 1.0, 1.0])
        raw[0, 2] = 0.4
        cov = CovarianceMatrix(sigma=raw)
        assert np.array_equal(cov.sigma, cov.sigma.T)
        assert cov.mu[0, 0] == pytest.approx(0.2)

    def test_blocks(self):
        cov = tmsv_covariance(0.5)
        c, s = math.cosh(1.0) / 2, math.sinh(1.0) / 2
        assert np.allclose(cov.alpha, c * np.eye(2))
        assert np.allclose(cov.beta, c * np.eye(2))
        assert np.allclose(cov.mu, np.diag([s, -s]))

    def test_shape_checked(self):
        with pytest.raises(ConfigError):
            CovarianceMatrix(sigma=np.eye(3))


class TestSymplecticSpectra:
    def test_vacuum(self):
        vac = vacuum_covariance()
        assert symplectic_eigen_pt(vac) == (0.5, 0.5)
        assert symplectic_eigen_physical(vac) == (0.5, 0.5)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
    def test_tmsv_pt_spectrum(self, r):
        nu_plus, nu_minus = symplectic_eigen_pt(tmsv_covariance(r))
        assert nu_plus == pytest.approx(math.exp(2 * r) / 2, rel=1e-12)
        assert nu_minus == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)

    @pytest.mark.parametrize("r", [0.25, 1.0, 2.0])
    def test_tmsv_physical_spectrum_is_vacuum_like(self, r):
        nu = symplectic_eigen_physical(tmsv_covariance(r))
        assert nu[0] == pytest.approx(0.5, abs=1e-12)
        assert nu[1] == pytest.approx(0.5, abs=1e-12)

    def test_m0_product_state(self):
        cov = second_moments(QevParams.from_sigma(0, 2.0, 0.5))
        assert symplectic_eigen_pt(cov) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert symplectic_eigen_physical(cov) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_unphysical_matrix_raises(self):
        bad = CovarianceMatrix(sigma=0.1 * np.eye(4))
        with pytest.raises(NumericError, match="symplectic eigenvalue"):
            log_negativity(bad)


class TestLogNegativity:
    def test_boundary(self):
        rep = log_negativity(vacuum_covariance())
        assert rep.log_negativity == 0.0
        assert rep.separable

    def test_tmsv_r1(self):
        rep = log_negativity(tmsv_covariance(1.0))
        assert rep.log_negativity == pytest.approx(2.0, abs=1e-12)
        assert not rep.separable

    def test_clamped_at_zero(self):
        # nu_min = 0.6 would give E_N = -ln(1.2) < 0; clamped to 0, separable
        cov = CovarianceMatrix(sigma=0.6 * np.eye(4))
        rep = log_negativity(cov)
        assert rep.log_negativity == 0.0
        assert rep.separable
        assert rep.nu_min == pytest.approx(0.6, rel=1e-12)

    def test_monotone_decreasing_in_nu_min(self):
        # nu_min spans (0, 1/2] along the squeezed-vacuum family; E_N must
        # be continuous and strictly decreasing in nu_min on that interval
        rng = np.random.default_rng(0)
        rs = np.sort(rng.uniform(0.0, 2.0, size=40))
        reports = [log_negativity(tmsv_covariance(float(r))) for r in rs]
        nus = [rep.nu_min for rep in reports]
        ens = [rep.log_negativity for rep in reports]
        assert all(a >= b for a, b in zip(nus, nus[1:]))  # nu_min falls with r
        assert all(a <= b for a, b in zip(ens, ens[1:]))  # E_N rises as nu_min falls
        assert all(e == pytest.approx(max(0.0, -math.log(2 * nu)), rel=1e-12) for e, nu in zip(ens, nus))

    def test_report_invariants(self):
        rep = log_negativity(tmsv_covariance(0.7))
        assert rep.nu_min == min(rep.nu_plus, rep.nu_minus)
        assert rep.separable == (rep.log_negativity == 0.0)
        assert rep.separable == (rep.nu_min >= 0.5)


class TestSecondMoments:
    def test_m0_diagonal(self):
        p = QevParams.from_sigma(0, 2.0, 0.5)
        cov = second_moments(p)
        want = np.diag([2.0, 1.0 / 8.0, 0.125, 2.0])
        assert np.max(np.abs(cov.sigma - want)) < 1e-12
        assert np.max(np.abs(cov.mu)) < 1e-12

    def test_m0_purity_determinant(self):
        for sx in SIGMA_GRID:
            for sy in SIGMA_GRID:
                cov = second_moments(QevParams.from_sigma(0, sx, sy))
                assert cov.det_sigma() == pytest.approx(1.0 / 16.0, abs=1e-9)

    def test_vortex_covariance_analytic(self):
        # <x^2> = sx^2 (m+1)/2, <p_x^2> = (m+1)/(2 sx^2), and the cross
        # block carries +- m/2 in scaled units; verified against the
        # rotated-mode decomposition of the state
        m, sx, sy, s = 3, 5.0, 3.0, 1
        cov = second_moments(QevParams.from_sigma(m, sx, sy, sign=s))
        assert cov.sigma[0, 0] == pytest.approx(sx**2 * (m + 1) / 2, rel=1e-12)
        assert cov.sigma[1, 1] == pytest.approx((m + 1) / (2 * sx**2), rel=1e-12)
        assert cov.sigma[2, 2] == pytest.approx(sy**2 * (m + 1) / 2, rel=1e-12)
        assert cov.sigma[3, 3] == pytest.approx((m + 1) / (2 * sy**2), rel=1e-12)
        assert cov.sigma[0, 3] == pytest.approx(s * m * sx / (2 * sy), rel=1e-12)
        assert cov.sigma[1, 2] == pytest.approx(-s * m * sy / (2 * sx), rel=1e-12)
        assert cov.sigma[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert cov.sigma[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_sign_flips_cross_block(self):
        a = second_moments(QevParams.from_sigma(2, 5.0, 3.0, sign=1))
        b = second_moments(QevParams.from_sigma(2, 5.0, 3.0, sign=-1))
        assert np.allclose(a.mu, -b.mu, atol=1e-14)

    @pytest.mark.parametrize("m", [0, 2, 3, 5])
    def test_dual_methods_agree(self, m):
        p = QevParams.from_sigma(m, 5.0, 3.0)
        a = second_moments(p, method="wavefunction").sigma
        b = second_moments(p, method="wigner4d").sigma
        scale = np.abs(a) + 1e-3 * np.sqrt(np.outer(np.diag(a), np.diag(a)))
        assert np.max(np.abs(a - b) / scale) < 1e-5

    def test_uncertainty_bound(self):
        for m in (0, 1, 4):
            for sx, sy in ((0.5, 0.5), (5.0, 3.0), (1.0, 5.0)):
                cov = second_moments(QevParams.from_sigma(m, sx, sy))
                assert min(symplectic_eigen_physical(cov)) >= 0.5 - 1e-9

    @staticmethod
    def _lattice_moments(params, order):
        # the wavefunction integration on an order^2 matched lattice, one
        # np.sum per entry, kept here as the reference at order 64
        rule = gauss_hermite_rule(order)
        sx, sy = params.sigma_x, params.sigma_y
        x, y = sx * rule.nodes[:, None], sy * rule.nodes[None, :]
        w2 = rule.weights[:, None] * rule.weights[None, :] * sx * sy
        w2 = w2 * np.exp(rule.nodes[:, None] ** 2 + rule.nodes[None, :] ** 2)
        value = psi(params, x, y)
        dx, dy = psi_gradient(params, x, y)
        dens = (value.conjugate() * value).real
        # index pairs in (x, p_x, y, p_y) order
        integrands = {
            (0, 0): dens * x * x, (2, 2): dens * y * y, (0, 2): dens * x * y,
            (1, 1): (dx.conjugate() * dx).real, (3, 3): (dy.conjugate() * dy).real,
            (1, 3): (dx.conjugate() * dy).real,
            (0, 1): (value.conjugate() * x * dx).imag, (2, 3): (value.conjugate() * y * dy).imag,
            (0, 3): (value.conjugate() * x * dy).imag, (1, 2): (value.conjugate() * y * dx).imag,
        }
        mat = np.zeros((4, 4))
        for (i, j), arr in integrands.items():
            mat[i, j] = mat[j, i] = float(np.sum(w2 * arr))
        return mat

    def test_minimal_lattice_is_exact(self):
        # second_moments runs on the (m + 2)^2 lattice: it matches the 64^2
        # integration to roundoff, and the (m + 1)^2 lattice does not
        for m in range(9):
            for sign in (1, -1):
                for sx, sy in ((5.0, 3.0), (1.0, 1.0), (0.5, 3.0), (0.05, 0.1)):
                    p = QevParams.from_sigma(m, sx, sy, sign=sign)
                    want = self._lattice_moments(p, 64)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(second_moments(p).sigma - want)) <= 1e-12 * scale
                    if m >= 1:
                        assert np.max(np.abs(self._lattice_moments(p, m + 1) - want)) > 1e-6 * scale

    @pytest.mark.parametrize("route, method", [
        ("_wavefunction_entries", "wavefunction"), ("oracle_covariance_entries", "wigner4d"),
    ])
    def test_first_moment_gate_bites_at_unit_scale(self, monkeypatch, route, method):
        # M is of order one, so a first moment of 1e-9 is a fault, not roundoff
        original = getattr(entanglement, route)
        monkeypatch.setattr(entanglement, route, lambda params: {**original(params), "p_x": 1e-9})
        with pytest.raises(NumericError, match="first moments did not vanish"):
            second_moments(QevParams.from_sigma(2, 5.0, 3.0), method=method)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            second_moments(QevParams.from_sigma(0, 1.0, 1.0), method="fft")


class TestPipelines:
    def test_oracle_pipeline_m0(self):
        cov, rep = entanglement_of(QevParams.from_sigma(0, 1.0, math.sqrt(5.0)))
        assert rep.log_negativity == 0.0
        assert rep.pipeline == "oracle"
        assert rep.notes == ()

    def test_gaussian_approximation_tag(self):
        _, rep = entanglement_of(QevParams.from_sigma(1, 1.0, 1.0))
        assert GAUSSIAN_APPROX_NOTE in rep.notes

    def test_closed_form_pipeline(self):
        p = QevParams.from_sigma(3, 5.0, 3.0)
        cov = closed_form_second_moments(p)
        # rank-one tilted Gaussian: the cross block is an outer product,
        # so its determinant vanishes and the monotone stays zero
        assert abs(np.linalg.det(cov.mu)) < 1e-12
        _, rep = entanglement_of(p, pipeline="closed-form")
        assert rep.pipeline == "closed-form"
        assert rep.log_negativity == 0.0

    def test_closed_form_matches_quadrature_orders(self):
        # the exact covariance against a 32^4 matched Gauss-Hermite rule,
        # exact for these m up to roundoff, at well-conditioned widths
        rule = gauss_hermite_rule(32)
        shapes = [(-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)]
        t = [rule.nodes.reshape(shape) for shape in shapes]
        w4 = math.prod(rule.weights.reshape(shape) for shape in shapes)
        for sx, sy in ((5.0, 3.0), (0.5, 3.0), (1.0, 1.0)):
            x, y, p_x, p_y = sx * t[0], sy * t[1], t[2] / sx, t[3] / sy
            coords = (x, p_x, y, p_y)
            for m in range(6):
                p = QevParams.from_sigma(m, sx, sy)
                base = w4 * laguerre_assoc_half(m, alp_argument(p, x, y, p_x, p_y))
                total = float(np.sum(base))
                want = np.array([[float(np.sum(base * a * b)) / total for b in coords] for a in coords])
                got = closed_form_second_moments(p).sigma
                assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_paper_literal_alias_rejected(self):
        with pytest.raises(ConfigError):
            entanglement_of(QevParams.from_sigma(1, 5.0, 3.0), pipeline="paper-literal")

    def test_vortex_pt_spectrum_degenerate(self):
        # the vortex family's covariance sits exactly at nu_min = 1/2 for
        # m = 0 and at sqrt(2m+1)/2 (doubly degenerate) for m >= 1, so the
        # monotone vanishes identically for every m and sigma
        for m in (1, 3):
            cov = second_moments(QevParams.from_sigma(m, 5.0, 3.0))
            nu = symplectic_eigen_pt(cov)
            want = math.sqrt(2 * m + 1) / 2
            assert nu[0] == pytest.approx(want, rel=1e-9)
            assert nu[1] == pytest.approx(want, rel=1e-9)


class TestDeepSqueezing:
    def test_oracle_answers_at_every_legal_width(self, tmp_path, capsys):
        # the oracle pipeline reads the spectra off the unit-width M, so deep
        # squeezing changes only the printed S M S
        rng = np.random.default_rng(20261022)
        for c1 in (0.5, 1.0):  # the zeta and sigma-proportional relations
            for zeta_x in [-12.0, 6.0] + rng.uniform(-12.0, 6.0, 4).tolist():
                for m in range(9):
                    for sign in (1, -1):
                        p = SweepConfig(c1=c1, sign=sign).params_at(zeta_x, m)
                        cov, rep = entanglement_of(p, pipeline="oracle")
                        assert np.all(np.isfinite(cov.sigma))
                        assert cov.sigma[0, 0] == pytest.approx(p.sigma_x**2 * (m + 1) / 2, rel=1e-12)
                        assert rep.log_negativity == 0.0
                        want = math.sqrt(2 * m + 1) / 2
                        assert abs(rep.nu_plus - want) <= 1e-12 and abs(rep.nu_minus - want) <= 1e-12
        for m in (1, 3, 8, 12, 20):
            for zx, zy in (("-12", "0.4"), ("-30", "0"), ("40", "-40"), ("150", "0")):
                assert main(["entangle", "--m", str(m), "--zeta-x", zx, "--zeta-y", zy]) == 0
                assert "log_negativity=0.000000000000e+00" in capsys.readouterr().out
        out = tmp_path / "deep.csv"
        argv = ["sweep", "--pipeline", "oracle", "--zeta-min", "-12", "--zeta-max", "-6", "--steps", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines() if line.startswith("-")]
        assert len(rows) == 7 and all(float(v) == 0.0 for row in rows for v in row[2:])
