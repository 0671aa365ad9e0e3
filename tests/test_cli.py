"""Command-line surface: formats, exit codes, determinism, config handling."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qev import cli, formats
from qev.cli import main
from qev.formats import FORMAT_VERSION, _meta_lines, fmt, write_grid_csv
from qev.oracle import oracle_slice
from qev.state import QevParams
from qev.wigner import PLANES, Grid2D, wigner_slice


def read_meta_lines(path):
    """``# key=value`` metadata of any of the text output formats."""
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            meta[key.strip()] = value.strip()
    return meta


def read_grid_values(path):
    """The value rows of a grid CSV."""
    lines = path.read_text().splitlines()
    assert lines[0] == FORMAT_VERSION
    return np.array([[float(v) for v in line.split(",")] for line in lines if not line.startswith("# ")])


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestSlice:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "slice.csv"
        code = main(["slice", "--m", "3", "--sigma-x", "5", "--sigma-y", "3",
                     "--plane", "xpx", "--n", "129", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        assert "significant extrema:" in captured
        assert "raw strict extrema:" in captured
        meta = read_meta_lines(out)
        assert read_grid_values(out).shape == (129, 129)
        assert meta["pipeline"] == "closed-form"
        assert float(meta["k_num"]) < 0  # odd vorticity

    def test_deterministic_across_reruns_and_threads(self, tmp_path):
        args = ["slice", "--m", "2", "--sigma-x", "5", "--sigma-y", "3",
                "--plane", "pxpy", "--n", "65"]
        paths = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "6")):
            out = tmp_path / f"{tag}.csv"
            assert main(args + ["--out", str(out), "--threads", threads]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_unnormalisable_closed_form_exits_2(self, tmp_path, capsys):
        # equal widths sqrt(3)/2 give rho = 1, where the printed form
        # integrates to zero for every m >= 1
        out = tmp_path / "f.csv"
        code = main(["slice", "--m", "3", "--sigma-x", "0.8660254037844386",
                     "--sigma-y", "0.8660254037844386", "--plane", "xy", "--out", str(out)])
        assert code == 2
        assert "cannot be normalised" in capsys.readouterr().err

    def test_ill_conditioned_closed_form_exits_2(self, tmp_path, capsys):
        # 8 ulps from rho = 1: K_num's relative error bound is 0.75, so the
        # slice would be 1e44-sized noise
        out = tmp_path / "g.csv"
        code = main(["slice", "--m", "3", "--sigma-x", "0.866025403784438",
                     "--sigma-y", "0.866025403784438", "--plane", "xy", "--n", "9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot be normalised" in err and "rho = 0.9999999999999991" in err
        assert not out.exists()

    def test_paper_literal_pipeline_rejected(self, tmp_path):
        code = main(["slice", "--m", "1", "--sigma-x", "1", "--sigma-y", "1", "--plane", "xy",
                     "--n", "9", "--pipeline", "paper-literal", "--out", str(tmp_path / "p.csv")])
        assert code == 1

    def test_oracle_pipeline(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["slice", "--m", "1", "--sigma-x", "1", "--sigma-y", "1",
                     "--plane", "xy", "--n", "33", "--out", str(out), "--pipeline", "oracle"])
        assert code == 0
        assert read_meta_lines(out)["pipeline"] == "oracle"

    def test_pgm_roundtrip_against_csv(self, tmp_path):
        base = ["slice", "--m", "0", "--sigma-x", "1", "--sigma-y", "1",
                "--plane", "xy", "--n", "33"]
        csv_path = tmp_path / "g.csv"
        pgm_path = tmp_path / "g.pgm"
        assert main(base + ["--out", str(csv_path)]) == 0
        assert main(base + ["--out", str(pgm_path), "--format", "pgm"]) == 0
        values = read_grid_values(csv_path)
        raw = pgm_path.read_bytes()
        header, payload = raw.split(b"\n65535\n", 1)
        assert header.startswith(b"P5\n33 33")
        pixels = np.frombuffer(payload, dtype=">u2").reshape(33, 33).astype(float)
        meta = read_meta_lines(pgm_path.with_suffix(".pgm.meta"))
        lo, hi = float(meta["value_min"]), float(meta["value_max"])
        restored = lo + pixels / 65535.0 * (hi - lo)
        # 16-bit quantization of the min-max normalized grid
        assert np.max(np.abs(restored - values)) <= (hi - lo) / 65535.0

    def test_usage_errors_exit_1(self, tmp_path):
        assert main(["slice", "--m", "1", "--plane", "xy", "--out", "x.csv"]) == 1
        assert main(["slice", "--m", "1", "--sigma-x", "1", "--sigma-y", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1  # missing plane
        assert main(["nonsense"]) == 1

    def test_peak_estimate_bounds_traced_slice(self, tmp_path):
        # the oracle pipeline at high m allocates the most per grid point
        tracemalloc.start()
        try:
            code = main(["slice", "--m", "8", "--sigma-x", "5", "--sigma-y", "3", "--plane", "xpx",
                         "--n", "97", "--pipeline", "oracle", "--out", str(tmp_path / "o.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= cli._slice_peak_bytes(97, 97)
        assert cli._slice_peak_bytes(4000, 4000) <= cli.SLICE_BYTES_MAX < cli._slice_peak_bytes(4097, 4097)
        assert cli._slice_peak_bytes(-9000, -9000) == formats.CSV_BLOCK_BYTES  # left to the grid's count check

    def test_n_over_slice_budget_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SLICE_BYTES_MAX", cli._slice_peak_bytes(33, 33))
        base = ["slice", "--m", "1", "--sigma-x", "1", "--sigma-y", "1", "--plane", "xy", "--out"]
        assert main(base + [str(tmp_path / "a.csv"), "--n", "33"]) == 0
        assert main(base + [str(tmp_path / "b.csv"), "--n", "34"]) == 1
        err = capsys.readouterr().err
        assert "error: --n 34 needs about" in err and f"over the {cli.SLICE_BYTES_MAX / 2**20:g} MiB slice budget" in err
        assert not (tmp_path / "b.csv").exists()

    def test_io_error_exit_3(self, tmp_path):
        code = main(["slice", "--m", "0", "--sigma-x", "1", "--sigma-y", "1",
                     "--plane", "xy", "--n", "33", "--out", "/nonexistent-dir/x.csv"])
        assert code == 3


def _per_element_grid_csv(grid, meta):
    """Reference writer: the grid CSV with ``fmt`` called on each numpy scalar."""
    lines = [FORMAT_VERSION, "# kind=slice", f"# plane={grid.plane}"]
    lines += [
        f"# axis_u min={fmt(grid.axis_u[0])} max={fmt(grid.axis_u[1])} count={grid.axis_u[2]}",
        f"# axis_v min={fmt(grid.axis_v[0])} max={fmt(grid.axis_v[1])} count={grid.axis_v[2]}",
    ]
    lines += _meta_lines(meta)
    for row in grid.values:
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def test_grid_csv_bytes_match_per_element_fmt(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, 11)) * 10.0 ** rng.uniform(-300, 300, size=(9, 11))
    values[0, :6] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310]
    values[1, :3] = [-1.0, 1.0 - 2.0**-53, -7.5e-13]
    grid = Grid2D(plane="xpy", axis_u=(-2.5, 2.5, 11), axis_v=(-1.0, 3.0, 9), values=values)
    meta = {"m": 2, "pipeline": "oracle", "k_num": -0.1234567890123}
    out = tmp_path / "g.csv"
    write_grid_csv(out, grid, meta)
    assert out.read_bytes() == _per_element_grid_csv(grid, meta)


def _csv_matches_fmt(tmp_path, values) -> bool:
    """write_grid_csv's bytes equal the per-element ``fmt`` reference, and
    encoding raises no RuntimeWarning."""
    rows, cols = values.shape
    grid = Grid2D(plane="xy", axis_u=(-1.0, 1.0, cols), axis_v=(-1.0, 1.0, rows), values=values)
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        write_grid_csv(out, grid)
    return out.read_bytes() == _per_element_grid_csv(grid, {})


class TestGridCsvEncoder:
    def test_powers_of_ten(self, tmp_path):
        p = np.array([float(f"1e{e}") for e in range(-23, 23)])
        assert _csv_matches_fmt(tmp_path, np.stack([p, np.nextafter(p, 0.0), np.nextafter(p, 1.0e300), -p]))

    def test_half_ties_and_roll_over(self, tmp_path):
        q = np.random.default_rng(5).integers(10**12, 10**13, 24)
        # nearest floats to (q + 1/2) 10**k, exact ties (q + 1/2) 10**j, and
        # multiples of 2**-20 (9.5367431640625e-07 has 14 digits)
        near = [float(f"{n}.5e{k}") for n in q.tolist() for k in range(-300, 290, 7)]
        exact = [(n + 0.5) * 10**j for n in q.tolist() for j in range(3)]
        dyadic = (np.arange(1, 241) * 2.0**-20).tolist()
        roll = [float(f"{d}e{e}") for d in ("9.9999999999995", "9.99999999999951", "9.99999999999949")
                for e in (-300, -100, -99, -5, 0, 5, 99, 100, 300)]
        values = np.array(near + exact + dyadic + roll + [-x for x in roll])
        assert _csv_matches_fmt(tmp_path, values[: values.size // 6 * 6].reshape(6, -1))
        assert fmt(9.99999999999951) == "1.000000000000e+01"

    def test_large_exponents_subnormals_and_signed_zeros(self, tmp_path):
        row = [1e100, 1e-100, 9.9e99, 1e-99, 1.7976931348623157e308, 2.2250738585072014e-308,
               5e-324, 1e-310, 3.3e-320, 0.0, 123.0, 1e-300]
        assert _csv_matches_fmt(tmp_path, np.array([row, [-x for x in row]]))

    def test_random_exponents(self, tmp_path):
        rng = np.random.default_rng(3)
        mantissa = rng.uniform(-9.99, 9.99, (40, 50))
        values = mantissa * 10.0 ** rng.integers(-330, 307, (40, 50)).astype(float)
        assert _csv_matches_fmt(tmp_path, values)

    @pytest.mark.parametrize("pipeline", [wigner_slice, oracle_slice], ids=["closed-form", "oracle"])
    def test_real_slices(self, tmp_path, pipeline):
        # every 16th row of each 257^2 slice: the per-element reference costs
        # 40 ms per full grid
        for m in range(6):
            for plane in PLANES:
                values = pipeline(QevParams.from_sigma(m, 5.0, 3.0), plane, axis_u=257, axis_v=257).values
                assert _csv_matches_fmt(tmp_path, values[::16]), (m, plane)

    @pytest.mark.parametrize("block_rows", [1, 3, 4, 11])
    def test_rows_not_a_multiple_of_the_block(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(formats, "CSV_BLOCK_BYTES", block_rows * 7 * formats.CSV_VALUE_BYTES)
        encode, blocks = formats._encode_rows, []
        monkeypatch.setattr(formats, "_encode_rows", lambda block: blocks.append(len(block)) or encode(block))
        values = np.random.default_rng(block_rows).standard_normal((10, 7))
        assert _csv_matches_fmt(tmp_path, values)
        assert blocks == [block_rows] * (10 // block_rows) + ([10 % block_rows] if 10 % block_rows else [])


class TestValidate:
    def test_m0_exit_zero(self, tmp_path):
        out = tmp_path / "v.jsonl"
        code = main(["validate", "--m", "0", "--sigma-x", "5", "--sigma-y", "3",
                     "--n-points", "40", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 41  # 40 records + summary
        summary = json.loads(lines[-1])
        assert summary["n_match"] == 40 and summary["n_mismatch"] == 0

    def test_mismatch_exit_three_but_report_written(self, tmp_path):
        out = tmp_path / "v3.jsonl"
        code = main(["validate", "--m", "3", "--sigma-x", "5", "--sigma-y", "3",
                     "--n-points", "15", "--seed", "3", "--out", str(out)])
        assert code == 3
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["n_mismatch"] > 0
        assert summary["n_match"] + summary["n_mismatch"] == summary["n_points"]

    @pytest.mark.parametrize("m", [30, 40])
    def test_high_m_returns_verdicts(self, tmp_path, m):
        # the arbiter's roundoff stays under the reality gate at high m
        out = tmp_path / "v.jsonl"
        code = main(["validate", "--m", str(m), "--sigma-x", "5", "--sigma-y", "3",
                     "--n-points", "8", "--out", str(out)])
        assert code in (0, 3)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 9 and {r["verdict"] for r in records[:-1]} <= {"MATCH", "MISMATCH"}
        assert records[-1]["rule_orders"] == [m + 1]

    def test_reproducible_bytes(self, tmp_path):
        args = ["validate", "--m", "1", "--sigma-x", "1", "--sigma-y", "1",
                "--n-points", "25", "--seed", "11"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(args + ["--out", str(a), "--threads", "1"])
        main(args + ["--out", str(b), "--threads", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_record_keys_fixed(self, tmp_path):
        out = tmp_path / "v.jsonl"
        main(["validate", "--m", "0", "--sigma-x", "1", "--sigma-y", "1",
              "--n-points", "3", "--seed", "1", "--out", str(out)])
        record = json.loads(out.read_text().splitlines()[0])
        assert list(record) == ["index", "x", "y", "p_x", "p_y", "closed_value",
                                "oracle_value", "abs_err", "rel_err",
                                "imag_residual", "rule_order", "verdict"]


class TestEntangle:
    def test_product_state(self, capsys):
        code = main(["entangle", "--m", "0", "--sigma-x", "1",
                     "--sigma-y", str(math.sqrt(5.0))])
        out = capsys.readouterr().out
        assert code == 0
        assert "log_negativity=0.000000000000e+00" in out
        assert "separable=true" in out

    def test_tmsv_fixture(self, capsys):
        code = main(["entangle", "--fixture", "tmsv", "--r", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split("log_negativity=")[1].split()[0])
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_approximation_note(self, capsys):
        code = main(["entangle", "--m", "1", "--sigma-x", "1", "--sigma-y", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gaussian-approximation for m>0" in out

    def test_covariance_entries_printed(self, capsys):
        main(["entangle", "--m", "2", "--sigma-x", "5", "--sigma-y", "3"])
        out = capsys.readouterr().out
        for key in ("cov_xx", "cov_xpx", "cov_xy", "cov_xpy", "cov_pxpx",
                    "cov_ypx", "cov_pxpy", "cov_yy", "cov_ypy", "cov_pypy"):
            assert f"{key}=" in out

    def test_unphysical_closed_form_exits_2(self, capsys):
        # small equal widths put the closed-form distribution outside the
        # uncertainty bound; the contract is a numeric-failure exit
        code = main(["entangle", "--m", "2", "--sigma-x", "0.5", "--sigma-y", "0.5",
                     "--pipeline", "closed-form"])
        assert code == 2


class TestSweep:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--zeta-min", "-1", "--zeta-max", "0", "--steps", "4",
                     "--m-list", "0,1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# qev v1")
        assert "E_N_m0,E_N_m1" in text
        assert "# crossing m_low=0 m_high=1 status=NOT_FOUND" in text
        assert "divergence" in text

    def test_default_flags_round_trip_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("zeta-min=-1\nzeta-max=0\nsteps=3\nm-list=0,1\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        # flags override the config file
        assert main(["sweep", "--config", str(cfg), "--steps", "5", "--out", str(out2)]) == 0
        assert len([l for l in out1.read_text().splitlines() if not l.startswith("#") and "," in l and "zeta" not in l]) == 3
        assert len([l for l in out2.read_text().splitlines() if not l.startswith("#") and "," in l and "zeta" not in l]) == 5

    def test_sigma_proportional_relation(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = main(["sweep", "--zeta-min", "-0.5", "--zeta-max", "0.5", "--steps", "3",
                     "--m-list", "0", "--relation", "sigma-proportional", "--out", str(out)])
        assert code == 0
        assert "c1=1.000000000000e+00" in out.read_text()

    def test_deterministic_across_threads(self, tmp_path):
        args = ["sweep", "--zeta-min", "-1", "--zeta-max", "0", "--steps", "5",
                "--m-list", "0,2"]
        blobs = []
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "8")):
            out = tmp_path / f"{tag}.csv"
            assert main(args + ["--out", str(out), "--threads", threads]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bad_relation(self, tmp_path):
        assert main(["sweep", "--relation", "weird", "--out", str(tmp_path / "x.csv")]) == 1

    def test_numeric_failure_leaves_failed_sentinel(self, tmp_path):
        # equal small widths make the closed-form covariance unphysical, so
        # the scan must stop with exit 2 and keep the partial CSV
        out = tmp_path / "fail.csv"
        code = main(["sweep", "--zeta-min", "-0.8", "--zeta-max", "-0.6", "--steps", "3",
                     "--m-list", "2", "--c0", "0", "--c1", "1",
                     "--pipeline", "closed-form", "--out", str(out)])
        assert code == 2
        lines = out.read_text().splitlines()
        assert any(l.startswith("FAILED,") for l in lines)


    def test_overflowing_point_keeps_partial_csv(self, tmp_path, capsys):
        # sigma_x = exp(-800) underflows to 0.0 at the first point, which the
        # state rejects by naming the width; the scan stops as at any failed
        # point and keeps its CSV
        out = tmp_path / "F"
        code = main(["sweep", "--zeta-min", "-400", "--zeta-max", "0", "--steps", "3", "--out", str(out)])
        assert code == 2
        lines = out.read_text().splitlines()
        assert lines[-2] == "zeta_x,sigma_x,E_N_m0,E_N_m1,E_N_m2,E_N_m3,E_N_m4,E_N_m5"
        assert lines[-1] == ("FAILED,point 0 (zeta_x=-400.000000): width sigma_x = exp(2 zeta_x) "
                             "is not a finite positive float at zeta_x = -400.0")
        assert "partial CSV retained" in capsys.readouterr().err


# subcommand -> (every valued flag it is given, one key that a config file
# sets wrong and a flag corrects); "OUT" stands for a file in the run's folder
_CONFIG_CASES = {
    "slice": ({"m": "2", "sigma-x": "5", "sigma-y": "3", "sign": "-1", "plane": "xpx", "n": "17",
               "pipeline": "oracle", "format": "pgm", "quad-order": "12", "threads": "2", "out": "OUT"},
              ("n", "33")),
    "validate": ({"m": "0", "zeta-x": "0.3", "zeta-y": "-0.2", "n-points": "12", "seed": "4",
                  "tol": "1e-5", "abs-floor": "1e-11", "out": "OUT"},
                 ("seed", "9")),
    "entangle": ({"m": "2", "sigma-x": "5", "sigma-y": "3", "pipeline": "closed-form", "out": "OUT"},
                 ("pipeline", "oracle")),
    "sweep": ({"zeta-min": "-1", "zeta-max": "0", "steps": "3", "m-list": "0,1",
               "relation": "sigma-proportional", "c0": "0.1", "c1": "0.9", "sign": "-1",
               "pipeline": "oracle", "out": "OUT"},
              ("steps", "5")),
    "selftest": ({"tol-scale": "2"}, ("tol-scale", "0")),
}


def _run_with(folder, command, config, flags, capsys):
    """Exit code, stdout (run time dropped) and files of one run in ``folder``."""
    value = lambda v: str(folder / "result") if v == "OUT" else v
    argv = [command] + [tok for k, v in flags.items() for tok in (f"--{k}", value(v))]
    if config:
        cfg = folder.with_suffix(".cfg")
        cfg.write_text("".join(f"{k}={value(v)}\n" for k, v in config.items()))
        argv += ["--config", str(cfg)]
    folder.mkdir()
    code = main(argv)
    out = re.sub(r" in [0-9.]+s$", "", capsys.readouterr().out, flags=re.M)
    return code, out, {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


class TestConfigPrecedence:
    @pytest.mark.parametrize("command", sorted(_CONFIG_CASES))
    def test_config_file_matches_flags(self, tmp_path, capsys, command):
        values, (key, wrong) = _CONFIG_CASES[command]
        by_flags = _run_with(tmp_path / "flags", command, {}, values, capsys)
        code, out, files = by_flags
        assert code == 0 and out and (files or command == "selftest")
        assert _run_with(tmp_path / "config", command, values, {}, capsys) == by_flags
        # a flag overrides the config file's value for the same key
        overridden = _run_with(tmp_path / "override", command, {**values, key: wrong}, {key: values[key]}, capsys)
        assert overridden == by_flags

    def test_keys_naming_no_valued_flag_ignored(self, tmp_path, capsys):
        plain = _run_with(tmp_path / "plain", "selftest", {}, {}, capsys)
        junk = {"func": "x", "command": "slice", "config": "/no/such/file", "verbose": "true", "bogus": "1"}
        assert _run_with(tmp_path / "junk", "selftest", junk, {}, capsys) == plain

    @pytest.mark.parametrize("line, message", [
        ("m=one", "argument --m: invalid int value: 'one'"),
        ("threads=0", "argument --threads: must be >= 1"),
        ("quad-order=many", "argument --quad-order: invalid int value: 'many'"),
        ("plane=zz", "--plane must be one of"),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"m=1\nsigma-x=1\nsigma-y=1\nplane=xy\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["slice", "--config", str(cfg), "--n", "9", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m=0\nsigma-x=1\nsigma-y=1\n")
        code = main(["entangle", "--config", str(cfg), "--m", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# m=1" in out

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just nonsense\n")
        assert main(["entangle", "--config", str(cfg)]) == 1

    def test_missing_config_file(self):
        assert main(["entangle", "--config", "/no/such/file"]) == 1

    @pytest.mark.parametrize("command", ["slice", "validate", "entangle", "sweep", "selftest"])
    def test_shared_flags_validated_everywhere(self, tmp_path, command):
        # --threads and --quad-order change no value but stay validated
        assert main([command, "--threads", "0"]) == 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text("quad-order=many\n")
        assert main([command, "--config", str(cfg)]) == 1


class TestArithmeticFailure:
    @pytest.mark.parametrize("argv", [
        ["entangle", "--m", "1", "--zeta-x", "200", "--zeta-y", "0"],
        ["slice", "--m", "1", "--zeta-x", "200", "--zeta-y", "0", "--plane", "xy", "--n", "5", "--out", "F"],
        ["entangle", "--m", "1", "--sigma-x", "1e308", "--sigma-y", "1"],
        ["slice", "--m", "1000", "--sigma-x", "5", "--sigma-y", "3", "--plane", "xy", "--n", "5", "--out", "F"],
    ])
    def test_overflow_exits_2(self, tmp_path, capsys, argv):
        # widths whose squares, or powers, leave float64 range overflow or
        # divide by zero inside float arithmetic; the CLI reports that as a
        # numeric failure
        argv = [str(tmp_path / "F") if a == "F" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: OverflowError: ") or err.startswith(
            "numeric failure: ZeroDivisionError: "
        )


    @pytest.mark.parametrize("argv", [
        ["entangle", "--m", "1", "--zeta-x", "400", "--zeta-y", "0"],
        ["slice", "--m", "1", "--zeta-x", "0", "--zeta-y", "-400", "--plane", "xy", "--n", "5", "--out", "F"],
    ])
    def test_width_outside_float_range_exits_1(self, tmp_path, capsys, argv):
        # exp(2 zeta) overflows or underflows to 0: the state names the width
        argv = [str(tmp_path / "F") if a == "F" else a for a in argv]
        assert main(argv) == 1
        assert "error: width sigma_" in capsys.readouterr().err
        assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("argv", [
    ["slice", "--m", "0", "--sigma-x", "1", "--sigma-y", "1", "--plane", "xy", "--n", "9", "--format", "pgm"],
    ["validate", "--m", "0", "--sigma-x", "1", "--sigma-y", "1", "--n-points", "5"],
    ["entangle", "--m", "0", "--sigma-x", "1", "--sigma-y", "1"],
    ["sweep", "--steps", "3", "--m-list", "0"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "no-such-dir" / "result"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and str(out) in err
