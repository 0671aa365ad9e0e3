"""Sweep engine: grids, relations, crossing detection, CSV serialization."""

import math

import numpy as np
import pytest

from qev.errors import ConfigError
from qev.sweep import (
    CrossingReport,
    SweepConfig,
    run_sweep,
    sweep_csv_lines,
)


def small_config(**overrides):
    base = dict(zeta_x_min=-1.0, zeta_x_max=0.5, n_steps=6, m_list=(0, 1), pipeline="oracle")
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_defaults_match_reference_relation(self):
        cfg = SweepConfig()
        assert cfg.c0 == pytest.approx(math.log(5.0) / 4.0, rel=1e-15)
        assert cfg.c1 == 0.5
        assert cfg.zeta_x_min == -4.0 and cfg.zeta_x_max == 2.0
        assert cfg.m_list == (0, 1, 2, 3, 4, 5)

    def test_zeta_relation_params(self):
        cfg = SweepConfig()
        p = cfg.params_at(-3.1073, 2)
        assert p.zeta_y == pytest.approx(math.log(5) / 4 + (-3.1073) / 2, rel=1e-15)
        # the linear zeta relation means sigma_y = sqrt(5 sigma_x)
        assert p.sigma_y == pytest.approx(math.sqrt(5.0 * p.sigma_x), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(zeta_x_min=1.0, zeta_x_max=0.0)
        with pytest.raises(ConfigError):
            small_config(n_steps=1)
        with pytest.raises(ConfigError):
            small_config(m_list=())
        with pytest.raises(ConfigError):
            small_config(m_list=(1, 1))


class TestRunSweep:
    def test_m0_column_is_zero(self):
        result = run_sweep(small_config(m_list=(0,)))
        assert result.failure is None
        assert np.all(result.log_negativity == 0.0)
        assert result.crossings == []
        assert any("divergence" in a for a in result.annotations)

    def test_monotone_ordering_reported(self):
        result = run_sweep(small_config())
        assert len(result.orderings) == 1
        assert "within" in result.orderings[0] or ">=" in result.orderings[0]

    def test_degenerate_two_rows(self):
        result = run_sweep(small_config(n_steps=2))
        assert result.n_completed == 2
        assert all(c.status == "NOT_FOUND" for c in result.crossings)

    def test_points_run_once_in_grid_order(self, monkeypatch):
        from qev import sweep

        config = small_config(m_list=(0, 1, 2))
        calls = []
        real = sweep.entanglement_of

        def recording(params, **kwargs):
            calls.append((params.zeta_x, params.m))
            return real(params, **kwargs)

        monkeypatch.setattr(sweep, "entanglement_of", recording)
        result = run_sweep(config)
        assert result.failure is None and result.n_completed == config.n_steps
        assert calls == [(z, m) for z in result.zeta_x.tolist() for m in config.m_list]

    def test_failed_sweep_leaves_no_point_running(self, monkeypatch):
        from qev import sweep
        from qev.errors import NumericError

        config = small_config(n_steps=8, m_list=(0, 1, 2, 3))
        zeta = np.linspace(config.zeta_x_min, config.zeta_x_max, config.n_steps).tolist()
        fail_at = 3
        calls = []
        real = sweep.entanglement_of

        def failing_point(params, **kwargs):
            calls.append((params.zeta_x, params.m))
            if params.zeta_x == zeta[fail_at] and params.m == 1:
                raise NumericError("injected failure")
            return real(params, **kwargs)

        monkeypatch.setattr(sweep, "entanglement_of", failing_point)
        result = run_sweep(config)
        assert result.failure == f"point {fail_at} (zeta_x={zeta[fail_at]:.6f}): injected failure"
        assert result.n_completed == fail_at
        assert np.all(np.isfinite(result.log_negativity[:fail_at]))
        assert np.all(np.isnan(result.log_negativity[fail_at:]))
        # the failing call is the last one: no later point is ever evaluated
        done = [(z, m) for z in zeta[:fail_at] for m in config.m_list]
        assert calls == done + [(zeta[fail_at], 0), (zeta[fail_at], 1)]
        assert result.crossings == [] and result.orderings == []
        lines = sweep_csv_lines(result)
        header = lines.index("zeta_x,sigma_x,E_N_m0,E_N_m1,E_N_m2,E_N_m3")
        assert len(lines[header + 1:-1]) == fail_at and lines[-1] == f"FAILED,{result.failure}"

    def test_both_pipelines_agree_on_zero(self):
        for pipeline in ("oracle", "closed-form"):
            result = run_sweep(small_config(pipeline=pipeline, m_list=(0, 2)))
            assert result.failure is None
            assert np.max(np.abs(result.log_negativity)) < 1e-10


class TestCrossingDetection:
    def test_not_found_on_flat_curves(self):
        result = run_sweep(small_config(m_list=(1, 3)))
        (crossing,) = result.crossings
        assert crossing.status == "NOT_FOUND"
        assert crossing.bracket is None

    def test_bracket_invariant_documented(self):
        # synthetic check of the bracket contract: endpoints must differ in sign
        cr = CrossingReport(m_low=0, m_high=1, status="FOUND", bracket=(-1.0, -0.5),
                            zeta_x_star=-0.7, sigma_x_star=math.exp(-1.4),
                            ordering_below="m=1 higher", ordering_above="m=0 higher",
                            consistency="INCONSISTENT")
        assert cr.sigma_x_star == pytest.approx(math.exp(2 * cr.zeta_x_star), rel=1e-12)


class TestCsvSerialization:
    def test_layout_and_annotations(self):
        result = run_sweep(small_config())
        lines = sweep_csv_lines(result, extra_meta={"relation": "zeta"})
        assert lines[0] == "# qev v1"
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "zeta_x,sigma_x,E_N_m0,E_N_m1"
        data = [l for l in lines[header_idx + 1:] if not l.startswith("#")]
        assert len(data) == 6
        assert any(l.startswith("# crossing m_low=0 m_high=1 status=NOT_FOUND") for l in lines)
        assert any("divergence" in l for l in lines)
        assert any("# ordering pair" in l for l in lines)
        assert any("crossing_reference_sigma_x=2.000000000000e-03" in l for l in lines)

    def test_deterministic_bytes(self):
        a = sweep_csv_lines(run_sweep(small_config()))
        b = sweep_csv_lines(run_sweep(small_config()))
        assert a == b
