"""One timed pass of a workload, in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the package source directory, the output directory, whether to
trace, and the job list.  The worker times ``import qev.cli`` (what every CLI
invocation pays), then runs the jobs in order: ``cli`` jobs through
``qev.cli.main`` with their stdout and stderr captured, ``invariants`` jobs
through the oracle's public functions, once per state.  Between jobs it clears every
``lru_cache`` of the package, so each job starts as cold as a separate CLI
invocation would.  RESULT gets per-job exit codes, output and wall time, and
the pass's wall time, CPU time and peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _package_caches() -> list:
    caches = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("qev."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                    caches.append(value)
    return caches


def _run_invariants(qev, job: dict) -> list[dict]:
    out = []
    for s in job["states"]:
        params = qev.state.QevParams.from_sigma(s["m"], s["sigma_x"], s["sigma_y"], sign=s["sign"])
        out.append({
            "norm": qev.oracle.wigner_norm(params),
            "purity": qev.oracle.wigner_purity(params),
            "marginal_deviation": qev.oracle.marginal_check(params).max_abs_deviation,
            "covariance": qev.entanglement.second_moments(params, method="wigner4d").sigma.tolist(),
            "closed_form_k_num": qev.wigner.closed_form_norm_constant(params),
        })
    return out


def _run_job(qev, job: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record = {"id": job["id"], "rc": None, "error": None}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                record["rc"] = qev.cli.main(job["argv"])
            else:
                result = _run_invariants(qev, job)
        wall = time.perf_counter() - start
        if job["kind"] == "invariants":
            with open(job["out"], "w") as fh:
                fh.write(json.dumps(result, sort_keys=True) + "\n")
            record["rc"] = 0
    except qev.QevError as exc:
        wall = time.perf_counter() - start
        record["error"] = f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash is reported as a failed job, not a dead pass
        wall = time.perf_counter() - start
        record["error"] = traceback.format_exc(limit=3)
    record.update(wall_s=wall, stdout=out.getvalue(), stderr=err.getvalue())
    return record


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import qev.cli  # timed: what every CLI invocation pays

    setup_s = time.perf_counter() - start
    origin = os.path.realpath(os.path.dirname(qev.__file__))
    if origin != os.path.realpath(os.path.join(spec["src"], "qev")):
        print(f"qev imported from {origin}, not from {spec['src']}", file=sys.stderr)
        return 2
    caches = _package_caches()
    gh_rule = qev.numerics.gauss_hermite_rule

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qev)

    os.chdir(spec["out_dir"])
    records = []
    gh_builds = 0
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    for job in spec["jobs"]:
        for cache in caches:
            cache.cache_clear()
        records.append(_run_job(qev, job))
        gh_builds += gh_rule.cache_info().misses
    pass_wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "pass_wall_s": pass_wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
        "gauss_hermite_builds": gh_builds,
        "layers": tracer.layer_totals() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
