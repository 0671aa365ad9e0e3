"""qev benchmark: one workload of CLI-equivalent jobs, timed end to end.

Usage, from the repository root:

    python3 qevbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

Each timed pass runs the workload's whole job list in a fresh interpreter
(``worker.py``), so the package's caches start cold as they do for a CLI
user.  Passes repeat until the next one would end after ``--seconds``; at
least one runs.  After every pass each job's output is checked against the
independent references (``checks.py``).  Set-up time is timed in separate
fresh interpreters that only import ``qev.cli``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_job
from jobs import THREADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_ROOT = ROOT / ".qevbench_run"

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170
# The job's own --threads pool is the only parallelism: no BLAS thread pool.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [
    "oracle.oracle_slice.self_s", "oracle.oracle_slice.points", "oracle.oracle_slice.alloc_peak_mb",
    "wigner.significant_extrema.self_s", "wigner.significant_extrema.cells", "wigner.slice_extrema.self_s",
    "wigner.wigner_slice.self_s", "formats.write_grid_csv.self_s", "formats.write_grid_csv.bytes",
    "formats.write_grid_pgm.self_s",
    "oracle.transform_points.self_s", "oracle.transform_points.points", "oracle.transform_points.alloc_peak_mb",
    "oracle.sample_phase_points.self_s", "oracle.validate_closed_form.self_s",
    "wigner.wigner_closed.calls", "wigner.wigner_closed.self_s",
    "formats.write_validation_jsonl.self_s", "formats.write_validation_jsonl.bytes",
    "wigner.closed_form_norm_constant.self_s", "wigner.closed_form_norm_constant.calls",
    "entanglement.closed_form_second_moments.self_s", "entanglement.closed_form_second_moments.calls",
    "numerics.laguerre_assoc_half.self_s", "numerics.laguerre_assoc_half.elements",
    "sweep.run_sweep.self_s", "sweep.run_sweep.points",
    "entanglement.second_moments.self_s", "entanglement.second_moments.calls",
    "entanglement.log_negativity.self_s", "state.psi.self_s", "state.psi_gradient.self_s",
    "sweep.sweep_csv_lines.self_s",
    "oracle.wigner_norm.self_s", "oracle.wigner_purity.self_s", "oracle.wigner_purity.alloc_peak_mb",
    "oracle.marginal_check.self_s", "oracle.oracle_covariance_entries.self_s", "state.intensity.self_s",
    "numerics.gauss_hermite_rule.calls", "numerics.gauss_hermite_rule.builds",
    "cli.main.self_s",
    "trace.overhead_s",
]
UNITS = {"self_s": "s", "overhead_s": "s", "alloc_peak_mb": "MB", "bytes": "bytes",
         "calls": "count", "points": "count", "cells": "count", "elements": "count", "builds": "count"}


class BenchError(RuntimeError):
    pass


def run_worker(jobs: list[dict], traced: bool, out_dir: Path) -> dict:
    """Run the job list in a fresh interpreter, writing outputs to ``out_dir``."""
    out_dir.mkdir(parents=True)
    spec_path = out_dir.with_name(out_dir.name + "-spec.json")
    result_path = out_dir.with_name(out_dir.name + "-result.json")
    spec_path.write_text(json.dumps({"src": str(ROOT / "src"), "out_dir": str(out_dir), "trace": traced, "jobs": jobs}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env={**os.environ, **WORKER_ENV}, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


class Pass:
    """One worker run of the job list and the verdicts on its outputs."""

    def __init__(self, jobs: list[dict], traced: bool, run_dir: Path, index: int, check: bool = True):
        pass_dir = run_dir / f"pass{index}"
        self.traced = traced
        self.result = run_worker(jobs, traced, pass_dir)
        self.outcomes: list[tuple[str, str]] = []
        self.problems: list[str] = []
        if check:
            for job, record in zip(jobs, self.result["records"]):
                outcome, problems = check_job(job, record, str(pass_dir))
                self.outcomes.append((job["id"], outcome))
                self.problems += problems
        shutil.rmtree(pass_dir)

    def completed_walls(self) -> list[float]:
        ok = {job_id for job_id, outcome in self.outcomes if outcome == "completed"}
        return [r["wall_s"] for r in self.result["records"] if r["id"] in ok]


def _layer_value(name: str, result: dict) -> float:
    layer, field = name.rsplit(".", 1)
    if name == "numerics.gauss_hermite_rule.builds":
        return float(result["gauss_hermite_builds"])
    row = result["layers"].get(layer, {"calls": 0, "self_s": 0.0, "count": 0, "alloc_peak": 0})
    if field == "self_s":
        return row["self_s"]
    if field == "calls":
        return float(row["calls"])
    if field == "alloc_peak_mb":
        return row["alloc_peak"] / 2**20
    return float(row["count"])


def per_layer_metrics(passes: list[Pass]) -> dict[str, float]:
    traced = [p.result for p in passes if p.traced]
    plain = [p.result["pass_wall_s"] for p in passes if not p.traced]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(r["pass_wall_s"] for r in traced) - statistics.median(plain)
        else:
            out[name] = statistics.median(_layer_value(name, r) for r in traced)
    return out


def end_to_end_metrics(passes: list[Pass], setup_samples: list[float]) -> tuple[dict[str, float], int]:
    plain = [p for p in passes if not p.traced]
    walls = [w for p in plain for w in p.completed_walls()]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": statistics.median(len(p.completed_walls()) / p.result["pass_wall_s"] for p in plain),
        "job_p50_s": statistics.median(walls) if walls else float("nan"),
        "cpu_s": statistics.median(p.result["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median(p.result["peak_rss_kb"] / 1024.0 for p in plain),
    }
    return metrics, len(walls)


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    if not (ROOT / "src" / "qev" / "__init__.py").is_file():
        raise BenchError(f"no qev sources under {ROOT / 'src'}")
    jobs = WORKLOADS[workload](seed, threads)
    run_dir = RUN_ROOT / f"{workload}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        index = iter(range(sys.maxsize))
        # The first import of a checkout compiles byte code; it is not timed.
        Pass([], False, run_dir, next(index), check=False)
        setup = [Pass([], False, run_dir, next(index), check=False).result["setup_s"] for _ in range(SETUP_SAMPLES)]

        unit = (False, True) if trace else (False,)
        passes: list[Pass] = []
        start, longest = time.monotonic(), 0.0
        while True:
            began = time.monotonic()
            passes += [Pass(jobs, traced, run_dir, next(index)) for traced in unit]
            longest = max(longest, time.monotonic() - began)
            if time.monotonic() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass

    setup += [p.result["setup_s"] for p in passes]
    e2e, n_walls = end_to_end_metrics(passes, setup)
    problems = [msg for p in passes for msg in p.problems]
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [(job_id, o) for job_id, o in outcomes if o != "completed"]

    n_plain = sum(not p.traced for p in passes)
    print(f"qev benchmark: workload={workload} seed={seed} threads={threads} "
          f"passes={len(passes)} ({n_plain} untraced) jobs/pass={len(jobs)}")
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of qev.cli",
        "job_p50_s": f"median of n={n_walls} completed jobs",
        "jobs_per_s": f"median of {n_plain} passes",
        "cpu_s": "user+system, median of passes",
        "peak_rss_mb": "worker max RSS, median of passes",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:12.6f} {unit:<7} {notes[name]}")
    walls = " ".join(f"{p.result['pass_wall_s']:.2f}{'t' if p.traced else ''}" for p in passes)
    print(f"  pass walls (s, t = traced): {walls}")
    print(f"  jobs attempted={len(outcomes)} failed={len(failed)}")
    for job_id in sorted({j for j, o in failed if o == "known-fault"}):
        print(f"  known fault: {job_id} exits 2 with 'first moments did not vanish' "
              "(FIRST_MOMENT_TOL in entanglement.py is absolute)")
    for job_id in sorted({j for j, o in failed if o == "failed"}):
        print(f"  UNEXPECTED FAILURE: {job_id}")
    for msg in problems[:20]:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)

    if trace:
        layers = per_layer_metrics(passes)
        for name in PER_LAYER:
            print(f"  {name:<48} {layers[name]:14.6f} {UNITS[name.rsplit('.', 1)[1]]}")
        metrics = {n: {"value": layers[n], "unit": UNITS[n.rsplit(".", 1)[1]]} for n in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    return {
        "correct": not problems and all(o != "failed" for _, o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=THREADS, help="--threads of every job (default 2)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.threads)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
