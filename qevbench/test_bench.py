"""Tests of the benchmark itself: its checks reject wrong output, tracing
changes no output byte, and BENCHMARK.json lists what run.py reports.

Run from the repository root:  python3 -m pytest -q qevbench/test_bench.py
(about half a minute: it runs one small job list of each kind, twice).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import jobs
import run
from spans import Tracer


def _small_jobs() -> list[dict]:
    """One cheap job of each kind, the deep-squeezing sweep included."""
    figure = jobs.figure_jobs(7, 2)
    return [
        next(j for j in figure if j["pipeline"] == "oracle" and j["state"]["m"] == 0),
        next(j for j in figure if j["format"] == "pgm"),
        jobs.adjudicate_jobs(7, 2)[0],
        *[j for j in jobs.sweep_jobs(7, 2) if j["pipeline"] == "oracle"][1:],
        dict(jobs.invariants_jobs(7, 2)[1], states=jobs.invariants_jobs(7, 2)[1]["states"][:2]),
    ]


@pytest.fixture(scope="module")
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.RUN_ROOT / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    if not any(run.RUN_ROOT.iterdir()):
        run.RUN_ROOT.rmdir()


@pytest.fixture(scope="module")
def passes(workdir):
    """The small job list run untraced and traced: (jobs, {traced: (result, dir)})."""
    small = _small_jobs()
    out = {traced: (run.run_worker(small, traced, workdir / f"trace{int(traced)}"), workdir / f"trace{int(traced)}")
           for traced in (False, True)}
    return small, out


@pytest.fixture
def tmp_dir(workdir, request):
    path = workdir / request.node.name
    path.mkdir()
    return path


def _job(small, prefix):
    return next(j for j in small if j["id"].startswith(prefix))


def _perturbed(passes, tmp_dir, job_id, edit):
    """Copy one untraced output to tmp_dir, apply ``edit`` to its text, check it."""
    small, out = passes
    result, out_dir = out[False]
    job = next(j for j in small if j["id"] == job_id)
    record = next(r for r in result["records"] if r["id"] == job_id)
    target = tmp_dir / job["out"]
    target.write_text(edit((out_dir / job["out"]).read_text()))
    return checks.check_job(job, record, str(tmp_dir))


def test_untouched_outputs_pass(passes):
    small, out = passes
    result, out_dir = out[False]
    for job, record in zip(small, result["records"]):
        outcome, problems = checks.check_job(job, record, str(out_dir))
        assert problems == [], problems
        assert outcome == ("known-fault" if job.get("known_fault") else "completed"), job["id"]


def test_traced_pass_writes_identical_bytes(passes):
    small, out = passes
    names = sorted(p.name for p in out[False][1].iterdir())
    assert names == sorted(p.name for p in out[True][1].iterdir())
    assert len(names) >= len(small)
    for name in names:
        assert (out[False][1] / name).read_bytes() == (out[True][1] / name).read_bytes(), name
    assert out[True][0]["layers"]["cli.main"]["calls"] == sum(j["kind"] == "cli" for j in small)


def test_w_value_off_by_1e6_is_rejected(passes, tmp_dir):
    job = next(j for j in passes[0] if j["command"] == "slice" and j["format"] == "csv")

    def edit(text):
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        values = np.array([[float(f) for f in line.split(",")] for line in lines[first:]])
        i, j = np.unravel_index(np.argmax(np.abs(values)), values.shape)
        row = lines[first + i].split(",")
        row[j] = f"{values[i, j] * (1 + 1e-6):.12e}"
        lines[first + i] = ",".join(row)
        return "\n".join(lines) + "\n"

    _, problems = _perturbed(passes, tmp_dir, job["id"], edit)
    assert any("slice off the reference" in p for p in problems), problems


def test_non_zero_log_negativity_is_rejected(passes, tmp_dir):
    job = _job(passes[0], "sweep-oracle-sigma")

    def edit(text):
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("zeta_x,")) + 3
        fields = lines[i].split(",")
        fields[-1] = "1.000000000000e-03"
        lines[i] = ",".join(fields)
        return "\n".join(lines) + "\n"

    _, problems = _perturbed(passes, tmp_dir, job["id"], edit)
    assert any("non-zero E_N" in p for p in problems), problems


def test_flipped_verdict_is_rejected(passes, tmp_dir):
    job = _job(passes[0], "validate")

    def edit(text):
        lines = text.splitlines()
        rec = json.loads(lines[5])
        rec["verdict"] = "MISMATCH" if rec["verdict"] == "MATCH" else "MATCH"
        lines[5] = json.dumps(rec)
        return "\n".join(lines) + "\n"

    _, problems = _perturbed(passes, tmp_dir, job["id"], edit)
    assert any("recomputed" in p for p in problems), problems


def test_norm_off_by_1e7_is_rejected(passes, tmp_dir):
    job = _job(passes[0], "invariants")

    def edit(text):
        got = json.loads(text)
        got[1]["norm"] += 1e-7
        return json.dumps(got, sort_keys=True) + "\n"

    _, problems = _perturbed(passes, tmp_dir, job["id"], edit)
    assert any("norm" in p for p in problems), problems


def test_unexpected_failure_is_not_a_known_fault():
    job = _job(jobs.sweep_jobs(1, 2), "sweep-cf-zeta")
    record = {"id": job["id"], "rc": 2, "error": None, "stdout": "", "stderr": "numeric failure: other"}
    outcome, problems = checks.check_job(job, record, "/nonexistent")
    assert outcome == "failed" and problems


def test_deep_sweep_inputs_do_not_depend_on_the_seed():
    deep = [_job(jobs.sweep_jobs(seed, 2), "sweep-oracle-deep") for seed in (1, 2, 99)]
    assert deep[0] == deep[1] == deep[2]


def test_job_lists_are_seeded():
    for make in jobs.WORKLOADS.values():
        assert make(3, 2) == make(3, 2)
        assert make(3, 2) != make(4, 2)
        assert len(make(3, 2)) == len(make(4, 2))


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    # parent 0..10 with overlapping children 1..4 and 3..6 (two threads), and 8..9
    tracer.spans = [
        (1, None, "a", 1, 0.0, 10.0, 0, 0),
        (2, 1, "b", 1, 1.0, 4.0, 0, 0),
        (3, 1, "b", 2, 3.0, 6.0, 0, 0),
        (4, 1, "c", 1, 8.0, 9.0, 5, 0),
    ]
    totals = tracer.layer_totals()
    assert totals["a"]["self_s"] == pytest.approx(4.0)
    assert totals["b"]["self_s"] == pytest.approx(6.0) and totals["b"]["calls"] == 2
    assert totals["c"]["count"] == 5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["unit"] for m in spec["per_layer"]] == [run.UNITS[n.rsplit(".", 1)[1]] for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert spec["paths"] == [Path(run.HERE).name]


def test_missing_sources_exit_non_zero(tmp_dir):
    bench = tmp_dir / "qevbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
