"""Command-line surface: slice rendering, closed-form validation,
entanglement evaluation, parameter sweeps, and the selftest suite.

Exit codes: 0 success, 1 usage/config, 2 numeric failure, 3 I/O failure
(validate also exits 3 when any point MISMATCHes, selftest exits 3 on any
failed check).  All outputs are deterministic byte-for-byte for identical
flags and seeds.  Every command runs on one thread; ``--threads`` is
validated and changes nothing.

``--config`` names a flat ``key=value`` file.  Its values become the
subcommand's defaults, so a config value is parsed and validated exactly like
the flag of the same name, and a flag on the command line overrides it.  Keys
that name no valued flag of the subcommand are ignored.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import formats
from .entanglement import COVARIANCE_ENTRIES, entanglement_of, log_negativity, tmsv_covariance
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


def _load_config(path: str) -> dict[str, str]:
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


def _config_as_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Make the ``--config`` file's values the chosen subcommand's defaults.

    Only keys that name a valued flag count (not ``--help`` or ``--verbose``).
    argparse runs a string default through its flag's ``type`` when the flag
    is absent, so a config value is cast and validated like the flag itself.
    """
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices[args.command]
    valued = {a.dest for a in command._actions if a.option_strings and a.nargs != 0}
    config = _load_config(args.config)
    command.set_defaults(**{key: value for key, value in config.items() if key in valued})


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_at_least_one, default=1, help="accepted and validated (>= 1); every command runs on one thread")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file; flags override it")
    parser.add_argument("--quad-order", type=int, default=64, help="accepted and validated; slice records it as quad_order; changes no value in any command")


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=None, help="vorticity (topological charge)")
    parser.add_argument("--sigma-x", type=float, default=None)
    parser.add_argument("--sigma-y", type=float, default=None)
    parser.add_argument("--zeta-x", type=float, default=None)
    parser.add_argument("--zeta-y", type=float, default=None)
    parser.add_argument("--sign", type=int, default=1, choices=(1, -1), help="vortex handedness (+1 or -1)")


def _params_from(args) -> QevParams:
    if args.m is None:
        raise UsageError("--m is required")
    zeta = {}
    for axis in "xy":
        sigma, zeta[axis] = getattr(args, f"sigma_{axis}"), getattr(args, f"zeta_{axis}")
        if (sigma is None) == (zeta[axis] is None):
            raise UsageError(f"give exactly one of --sigma-{axis} or --zeta-{axis}")
        if sigma is not None:
            if sigma <= 0:
                raise UsageError(f"--sigma-{axis} must be positive")
            zeta[axis] = 0.5 * math.log(sigma)
    return QevParams(m=args.m, zeta_x=zeta["x"], zeta_y=zeta["y"], sign=args.sign)


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

# A slice job's traced allocation peak is at most 57 bytes per grid point (both
# pipelines, m = 0..8, n = 513 and 1025) plus the CSV writer's block.
SLICE_BYTES_MAX = 1 << 30


def _slice_peak_bytes(count_u: int, count_v: int) -> int:
    return 64 * max(count_u, 0) * max(count_v, 0) + formats.CSV_BLOCK_BYTES  # the grid rejects counts below 2


def cmd_slice(args) -> int:
    params = _params_from(args)
    if args.plane not in PLANES:
        raise UsageError(f"--plane must be one of {sorted(PLANES)}")
    if args.out is None:
        raise UsageError("--out is required")
    if args.format not in ("csv", "pgm"):
        raise UsageError("--format must be csv or pgm")
    peak = _slice_peak_bytes(args.n, args.n)
    if peak > SLICE_BYTES_MAX:
        raise ConfigError(f"--n {args.n} needs about {peak / 2**20:.0f} MiB, over the {SLICE_BYTES_MAX / 2**20:g} MiB slice budget")

    if args.pipeline == "closed-form":
        grid = wigner_slice(params, args.plane, axis_u=args.n, axis_v=args.n)
        k_num = closed_form_norm_constant(params)
        k_ref = closed_form_reference_constant(params)
        extra = {"k_num": k_num, "k_reference": k_ref, "k_ratio": k_num / k_ref}
    elif args.pipeline == "oracle":
        grid = oracle_slice(params, args.plane, axis_u=args.n, axis_v=args.n)
        extra = {}
    else:
        raise UsageError("--pipeline must be closed-form or oracle")

    meta = {**_params_meta(params), "pipeline": args.pipeline, "quad_order": args.quad_order, **extra}
    write = formats.write_grid_csv if args.format == "csv" else formats.write_grid_pgm
    write(args.out, grid, meta)

    feats = significant_extrema(grid)
    raw = slice_extrema(grid)
    n_max = sum(1 for f in feats if f.kind == "max")
    n_min = sum(1 for f in feats if f.kind == "min")
    print(f"plane={args.plane} pipeline={args.pipeline} m={params.m} "
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
    params = _params_from(args)
    if args.out is None:
        raise UsageError("--out is required")

    report = validate_closed_form(params, args.n_points, args.seed, tol=args.tol, abs_floor=args.abs_floor)
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
    formats.write_validation_jsonl(args.out, report, meta)
    print(f"validated {args.n_points} points: {report.n_match} MATCH, {report.n_mismatch} MISMATCH "
          f"(max rel err {report.max_rel_err:.3e}, orders {list(report.rule_orders)})")
    return 0 if report.all_match else 3


# ---------------------------------------------------------------------------
# entangle
# ---------------------------------------------------------------------------


def cmd_entangle(args) -> int:
    lines: list[str] = [formats.FORMAT_VERSION, "# kind=entanglement"]

    if args.fixture is not None:
        if args.fixture != "tmsv":
            raise UsageError("--fixture supports only: tmsv")
        if args.r is None:
            raise UsageError("--r is required with --fixture tmsv")
        cov = tmsv_covariance(args.r)
        report = log_negativity(cov, pipeline="fixture")
        lines.append(f"# fixture=tmsv r={formats.fmt(args.r)}")
    else:
        params = _params_from(args)
        cov, report = entanglement_of(params, pipeline=args.pipeline)
        lines += formats._meta_lines(_params_meta(params))
        lines.append(f"# pipeline={report.pipeline}")

    for name, (i, j) in COVARIANCE_ENTRIES.items():
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
    if args.out is not None:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    if args.out is None:
        raise UsageError("--out is required")
    # both presets start at zeta_y = ln(5)/4; sigma_y = sqrt(5) sigma_x is
    # linear in zeta with unit slope
    c1_default = {"zeta": 0.5, "sigma-proportional": 1.0}.get(args.relation)
    if c1_default is None:
        raise UsageError("--relation must be zeta or sigma-proportional")
    try:
        m_list = tuple(int(tok) for tok in args.m_list.split(",") if tok != "")
    except ValueError as exc:
        raise UsageError(f"bad --m-list {args.m_list!r}") from exc
    try:
        sweep_config = SweepConfig(
            zeta_x_min=args.zeta_min,
            zeta_x_max=args.zeta_max,
            n_steps=args.steps,
            c0=math.log(5.0) / 4.0 if args.c0 is None else args.c0,
            c1=c1_default if args.c1 is None else args.c1,
            m_list=m_list,
            pipeline=args.pipeline,
            sign=args.sign,
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    if sweep_config.pipeline not in ("closed-form", "oracle"):
        raise UsageError("--pipeline must be closed-form or oracle")

    result = run_sweep(sweep_config)
    lines = sweep_csv_lines(result, extra_meta={"relation": args.relation})
    Path(args.out).write_text("\n".join(lines) + "\n")
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
    return run_selftest(tol_scale=args.tol_scale, verbose=args.verbose)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qev", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_slice = sub.add_parser("slice", help="render a 2D Wigner slice to CSV or PGM")
    _add_params(p_slice)
    _add_common(p_slice)
    p_slice.add_argument("--plane", type=str, default=None, choices=sorted(PLANES))
    p_slice.add_argument("--n", type=int, default=257, help="samples per axis (default 257)")
    p_slice.add_argument("--pipeline", type=str, default="closed-form", help="closed-form (default) or oracle")
    p_slice.add_argument("--out", type=str, default=None)
    p_slice.add_argument("--format", type=str, default="csv", help="csv (default) or pgm")
    p_slice.set_defaults(func=cmd_slice)

    p_val = sub.add_parser("validate", help="adjudicate the closed form against the transform oracle")
    _add_params(p_val)
    _add_common(p_val)
    p_val.add_argument("--n-points", type=int, default=200)
    p_val.add_argument("--seed", type=int, default=1)
    p_val.add_argument("--tol", type=float, default=1e-6)
    p_val.add_argument("--abs-floor", type=float, default=1e-12)
    p_val.add_argument("--out", type=str, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_ent = sub.add_parser("entangle", help="covariance matrix and logarithmic negativity")
    _add_params(p_ent)
    _add_common(p_ent)
    p_ent.add_argument("--pipeline", type=str, default="oracle", help="oracle (default) or closed-form")
    p_ent.add_argument("--fixture", type=str, default=None, help="analytic calibration fixture (tmsv)")
    p_ent.add_argument("--r", type=float, default=None, help="fixture squeezing parameter")
    p_ent.add_argument("--out", type=str, default=None)
    p_ent.set_defaults(func=cmd_entangle)

    p_sweep = sub.add_parser("sweep", help="squeeze-parameter sweep with crossing detection")
    _add_common(p_sweep)
    p_sweep.add_argument("--zeta-min", type=float, default=-4.0)
    p_sweep.add_argument("--zeta-max", type=float, default=2.0)
    p_sweep.add_argument("--steps", type=int, default=100)
    p_sweep.add_argument("--m-list", dest="m_list", type=str, default="0,1,2,3,4,5", help="comma-separated vorticities")
    p_sweep.add_argument("--relation", type=str, default="zeta", help="zeta (default) or sigma-proportional")
    p_sweep.add_argument("--c0", type=float, default=None)
    p_sweep.add_argument("--c1", type=float, default=None)
    p_sweep.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p_sweep.add_argument("--pipeline", type=str, default="closed-form")
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="measure the table of identities, one gated row each")
    _add_common(p_self)
    p_self.add_argument("--verbose", action="store_true")
    p_self.add_argument("--tol-scale", dest="tol_scale", type=float, default=1.0,
                        help="a row passes iff its error < its tolerance times this (0 fails every row)")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            _config_as_defaults(parser, args)
            args = parser.parse_args(argv)
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
