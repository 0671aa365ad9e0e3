"""Command-line surface: slice rendering, closed-form validation,
entanglement evaluation, parameter sweeps, and the selftest suite.

Exit codes: 0 success, 1 usage/config, 2 numeric failure, 3 I/O failure
(validate also exits 3 when any point MISMATCHes, selftest exits 3 on any
failed check).  All outputs are deterministic byte-for-byte for identical
flags and seeds.  Every command runs on one thread; ``--threads`` is
validated and changes nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import formats
from .entanglement import entanglement_of, log_negativity, tmsv_covariance
from .errors import ConfigError, DomainError, NumericError
from .oracle import oracle_slice, validate_closed_form
from .selftest import run_selftest
from .state import QevParams, normalization_constant
from .sweep import SweepConfig, run_sweep, sweep_csv_lines
from .wigner import (
    PLANES,
    closed_form_norm_constant,
    closed_form_reference_constant,
    significant_extrema,
    slice_extrema,
    wigner_slice,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 1
        raise UsageError(message)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args, config: dict, key: str, default, cast):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        raw = config[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config value {key}={raw!r}") from exc
    return default


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=None, help="accepted and validated (>= 1); every command runs on one thread")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file; flags override it")
    parser.add_argument("--quad-order", type=int, default=None, help="accepted and validated; slice records it as quad_order; changes no value in any command")


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=None, help="vorticity (topological charge)")
    parser.add_argument("--sigma-x", type=float, default=None)
    parser.add_argument("--sigma-y", type=float, default=None)
    parser.add_argument("--zeta-x", type=float, default=None)
    parser.add_argument("--zeta-y", type=float, default=None)
    parser.add_argument("--sign", type=int, default=None, choices=(1, -1), help="vortex handedness (+1 or -1)")


def _params_from(args, config: dict) -> QevParams:
    m = _resolve(args, config, "m", None, int)
    if m is None:
        raise UsageError("--m is required")
    sign = _resolve(args, config, "sign", 1, int)
    sx = _resolve(args, config, "sigma_x", None, float)
    sy = _resolve(args, config, "sigma_y", None, float)
    zx = _resolve(args, config, "zeta_x", None, float)
    zy = _resolve(args, config, "zeta_y", None, float)
    if (sx is None) == (zx is None):
        raise UsageError("give exactly one of --sigma-x or --zeta-x")
    if (sy is None) == (zy is None):
        raise UsageError("give exactly one of --sigma-y or --zeta-y")
    if zx is None:
        if sx <= 0:
            raise UsageError("--sigma-x must be positive")
        zx = 0.5 * math.log(sx)
    if zy is None:
        if sy <= 0:
            raise UsageError("--sigma-y must be positive")
        zy = 0.5 * math.log(sy)
    return QevParams(m=m, zeta_x=zx, zeta_y=zy, sign=sign)


def _command_config(args) -> dict[str, str]:
    """Load ``--config`` and validate the flags every command accepts.

    ``--threads`` must be >= 1 and ``--quad-order`` an integer, but neither
    changes a value: every command runs on one thread, and every integral is
    an exact sum or a closed form that picks its own order.
    """
    config = _load_config(args.config)
    if _resolve(args, config, "threads", 1, int) < 1:
        raise UsageError("--threads must be >= 1")
    _resolve(args, config, "quad_order", 64, int)
    return config


def _params_meta(params: QevParams) -> dict:
    return {
        "m": params.m,
        "zeta_x": params.zeta_x,
        "zeta_y": params.zeta_y,
        "sigma_x": params.sigma_x,
        "sigma_y": params.sigma_y,
        "sign": f"{params.sign:+d}",
    }


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------


def cmd_slice(args) -> int:
    config = _command_config(args)
    params = _params_from(args, config)
    plane = _resolve(args, config, "plane", None, str)
    if plane is None or plane not in PLANES:
        raise UsageError(f"--plane must be one of {sorted(PLANES)}")
    n = _resolve(args, config, "n", 257, int)
    pipeline = _resolve(args, config, "pipeline", "closed-form", str)
    out = _resolve(args, config, "out", None, str)
    if out is None:
        raise UsageError("--out is required")
    fmt_kind = _resolve(args, config, "format", "csv", str)
    if fmt_kind not in ("csv", "pgm"):
        raise UsageError("--format must be csv or pgm")
    order = _resolve(args, config, "quad_order", 64, int)

    if pipeline == "closed-form":
        grid = wigner_slice(params, plane, axis_u=n, axis_v=n)
        k_num = closed_form_norm_constant(params)
        k_ref = closed_form_reference_constant(params)
        extra = {"k_num": k_num, "k_reference": k_ref, "k_ratio": k_num / k_ref}
    elif pipeline == "oracle":
        grid = oracle_slice(params, plane, axis_u=n, axis_v=n)
        extra = {}
    else:
        raise UsageError("--pipeline must be closed-form or oracle")

    meta = {**_params_meta(params), "pipeline": pipeline, "quad_order": order, **extra}
    try:
        if fmt_kind == "csv":
            formats.write_grid_csv(out, grid, meta)
        else:
            formats.write_grid_pgm(out, grid, meta)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3

    feats = significant_extrema(grid)
    raw = slice_extrema(grid)
    n_max = sum(1 for f in feats if f.kind == "max")
    n_min = sum(1 for f in feats if f.kind == "min")
    print(f"plane={plane} pipeline={pipeline} m={params.m} "
          f"sigma_x={params.sigma_x:.6g} sigma_y={params.sigma_y:.6g}")
    print(f"significant extrema: {n_max} maxima, {n_min} minima")
    print(f"raw strict extrema: {sum(1 for e in raw if e.kind == 'max')} maxima, "
          f"{sum(1 for e in raw if e.kind == 'min')} minima")
    for f in feats:
        print(f"  {f.kind} at ({formats.fmt(f.u)}, {formats.fmt(f.v)}) value {formats.fmt(f.value)}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    config = _command_config(args)
    params = _params_from(args, config)
    n_points = _resolve(args, config, "n_points", 200, int)
    seed = _resolve(args, config, "seed", 1, int)
    tol = _resolve(args, config, "tol", 1e-6, float)
    abs_floor = _resolve(args, config, "abs_floor", 1e-12, float)
    out = _resolve(args, config, "out", None, str)
    if out is None:
        raise UsageError("--out is required")

    report = validate_closed_form(params, n_points, seed, tol=tol, abs_floor=abs_floor)
    n_num, ratio = normalization_constant(params)
    k_num = closed_form_norm_constant(params)
    k_ref = closed_form_reference_constant(params)
    meta = {
        "pipeline": "closed-form vs oracle",
        "amplitude_norm_ratio": ratio,
        "k_num": k_num,
        "k_reference": k_ref,
        "k_ratio": k_num / k_ref,
    }
    try:
        formats.write_validation_jsonl(out, report, meta)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    print(f"validated {n_points} points: {report.n_match} MATCH, {report.n_mismatch} MISMATCH "
          f"(max rel err {report.max_rel_err:.3e}, orders {list(report.rule_orders)})")
    return 0 if report.all_match else 3


# ---------------------------------------------------------------------------
# entangle
# ---------------------------------------------------------------------------


def cmd_entangle(args) -> int:
    config = _command_config(args)
    fixture = _resolve(args, config, "fixture", None, str)
    out = _resolve(args, config, "out", None, str)
    lines: list[str] = [formats.FORMAT_VERSION, "# kind=entanglement"]

    if fixture is not None:
        if fixture != "tmsv":
            raise UsageError("--fixture supports only: tmsv")
        r = _resolve(args, config, "r", None, float)
        if r is None:
            raise UsageError("--r is required with --fixture tmsv")
        cov = tmsv_covariance(r)
        report = log_negativity(cov, pipeline="fixture")
        lines.append(f"# fixture=tmsv r={formats.fmt(r)}")
    else:
        params = _params_from(args, config)
        pipeline = _resolve(args, config, "pipeline", "oracle", str)
        cov, report = entanglement_of(params, pipeline=pipeline)
        for key, value in _params_meta(params).items():
            lines.append(f"# {key}={value if isinstance(value, str) else formats.fmt(value) if isinstance(value, float) else value}")
        lines.append(f"# pipeline={report.pipeline}")

    names = [
        ("xx", 0, 0), ("xpx", 0, 1), ("xy", 0, 2), ("xpy", 0, 3),
        ("pxpx", 1, 1), ("ypx", 1, 2), ("pxpy", 1, 3),
        ("yy", 2, 2), ("ypy", 2, 3), ("pypy", 3, 3),
    ]
    for name, i, j in names:
        lines.append(f"cov_{name}={formats.fmt(cov.sigma[i, j])}")
    lines.append(f"det_sigma={formats.fmt(cov.det_sigma())}")
    lines.append(f"delta={formats.fmt(report.delta)}")
    lines.append(f"nu_plus={formats.fmt(report.nu_plus)}")
    lines.append(f"nu_minus={formats.fmt(report.nu_minus)}")
    lines.append(f"nu_min={formats.fmt(report.nu_min)}")
    lines.append(f"separable={'true' if report.separable else 'false'}")
    lines.append(f"log_negativity={formats.fmt(report.log_negativity)}")
    for note in report.notes:
        lines.append(f"# note={note}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 3
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = _command_config(args)
    out = _resolve(args, config, "out", None, str)
    if out is None:
        raise UsageError("--out is required")
    relation = _resolve(args, config, "relation", "zeta", str)
    if relation == "zeta":
        c0_default, c1_default = math.log(5.0) / 4.0, 0.5
    elif relation == "sigma-proportional":
        # sigma_y = sqrt(5) sigma_x is linear in zeta with unit slope
        c0_default, c1_default = math.log(5.0) / 4.0, 1.0
    else:
        raise UsageError("--relation must be zeta or sigma-proportional")
    m_list_raw = _resolve(args, config, "m_list", "0,1,2,3,4,5", str)
    try:
        m_list = tuple(int(tok) for tok in str(m_list_raw).split(",") if tok != "")
    except ValueError as exc:
        raise UsageError(f"bad --m-list {m_list_raw!r}") from exc
    try:
        sweep_config = SweepConfig(
            zeta_x_min=_resolve(args, config, "zeta_min", -4.0, float),
            zeta_x_max=_resolve(args, config, "zeta_max", 2.0, float),
            n_steps=_resolve(args, config, "steps", 100, int),
            c0=_resolve(args, config, "c0", c0_default, float),
            c1=_resolve(args, config, "c1", c1_default, float),
            m_list=m_list,
            pipeline=_resolve(args, config, "pipeline", "closed-form", str),
            sign=_resolve(args, config, "sign", 1, int),
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    if sweep_config.pipeline not in ("closed-form", "oracle"):
        raise UsageError("--pipeline must be closed-form or oracle")

    result = run_sweep(sweep_config)
    lines = sweep_csv_lines(result, extra_meta={"relation": relation})
    try:
        Path(out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    if result.failure is not None:
        print(f"sweep failed at {result.failure}; partial CSV retained", file=sys.stderr)
        return 2
    found = [c for c in result.crossings if c.status != "NOT_FOUND"]
    print(f"sweep complete: {result.n_completed} points, "
          f"{len(found)} crossing bracket(s) among {len(result.crossings)} adjacent pairs")
    for c in result.crossings:
        if c.status == "NOT_FOUND":
            print(f"  pair (m={c.m_low}, m={c.m_high}): NOT_FOUND")
        else:
            print(f"  pair (m={c.m_low}, m={c.m_high}): {c.status} at sigma_x*="
                  f"{formats.fmt(c.sigma_x_star)} ({c.consistency} with reference)")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(args) -> int:
    config = _command_config(args)
    tol_scale = _resolve(args, config, "tol_scale", 1.0, float)
    verbose = bool(getattr(args, "verbose", False))
    return run_selftest(tol_scale=tol_scale, verbose=verbose)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qev", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_slice = sub.add_parser("slice", help="render a 2D Wigner slice to CSV or PGM")
    _add_params(p_slice)
    _add_common(p_slice)
    p_slice.add_argument("--plane", type=str, default=None, choices=sorted(PLANES))
    p_slice.add_argument("--n", type=int, default=None, help="samples per axis (default 257)")
    p_slice.add_argument("--pipeline", type=str, default=None, help="closed-form (default) or oracle")
    p_slice.add_argument("--out", type=str, default=None)
    p_slice.add_argument("--format", type=str, default=None, help="csv (default) or pgm")
    p_slice.set_defaults(func=cmd_slice)

    p_val = sub.add_parser("validate", help="adjudicate the closed form against the transform oracle")
    _add_params(p_val)
    _add_common(p_val)
    p_val.add_argument("--n-points", type=int, default=None)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--tol", type=float, default=None)
    p_val.add_argument("--abs-floor", type=float, default=None)
    p_val.add_argument("--out", type=str, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_ent = sub.add_parser("entangle", help="covariance matrix and logarithmic negativity")
    _add_params(p_ent)
    _add_common(p_ent)
    p_ent.add_argument("--pipeline", type=str, default=None, help="oracle (default) or closed-form")
    p_ent.add_argument("--fixture", type=str, default=None, help="analytic calibration fixture (tmsv)")
    p_ent.add_argument("--r", type=float, default=None, help="fixture squeezing parameter")
    p_ent.add_argument("--out", type=str, default=None)
    p_ent.set_defaults(func=cmd_entangle)

    p_sweep = sub.add_parser("sweep", help="squeeze-parameter sweep with crossing detection")
    _add_common(p_sweep)
    p_sweep.add_argument("--zeta-min", type=float, default=None)
    p_sweep.add_argument("--zeta-max", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--m-list", dest="m_list", type=str, default=None, help="comma-separated vorticities")
    p_sweep.add_argument("--relation", type=str, default=None, help="zeta (default) or sigma-proportional")
    p_sweep.add_argument("--c0", type=float, default=None)
    p_sweep.add_argument("--c1", type=float, default=None)
    p_sweep.add_argument("--sign", type=int, default=None, choices=(1, -1))
    p_sweep.add_argument("--pipeline", type=str, default=None)
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the full invariant suite")
    _add_common(p_self)
    p_self.add_argument("--verbose", action="store_true")
    p_self.add_argument("--tol-scale", dest="tol_scale", type=float, default=None,
                        help="multiply every tolerance (harness sanity: 0 must fail)")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
