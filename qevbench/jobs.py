"""Job lists of the four workloads, made from the benchmark seed.

A job is a dict with an ``id``, a ``kind`` (``cli``: one ``qev`` command
line; ``invariants``: the oracle's integral checks for a list of states)
and the states it is about, so the checks can recompute the expected output without
reading it back from the program.  Every list has a fixed make-up: the seed
moves widths, handedness, validation seeds and sweep windows, never the
number or the kind of the jobs, so each pass does the same amount of work.
"""

from __future__ import annotations

import random

THREADS = 2

# The deep-squeezing oracle sweep.  Its inputs do not depend on the seed: it
# fails at its first point until the first-moment gate of
# entanglement.second_moments scales with the state's widths.
DEEP_SWEEP = {"zeta_min": -12.0, "zeta_max": -6.0, "steps": 7, "m_list": (0, 1, 2, 3, 4, 5)}
KNOWN_FAULT = "first moments did not vanish"


def _state(m, sigma_x, sigma_y, sign):
    return {"m": m, "sigma_x": sigma_x, "sigma_y": sigma_y, "sign": sign}


def _state_args(state) -> list[str]:
    return [
        "--m", str(state["m"]),
        "--sigma-x", repr(state["sigma_x"]),
        "--sigma-y", repr(state["sigma_y"]),
        "--sign", str(state["sign"]),
    ]


def _random_state(rng: random.Random, m: int) -> dict:
    return _state(m, rng.uniform(1.5, 6.0), rng.uniform(1.0, 4.0), rng.choice((1, -1)))


def figure_jobs(seed: int, threads: int) -> list[dict]:
    """Twelve 257^2 slices: every plane once on each pipeline."""
    rng = random.Random(f"figure-{seed}")
    a = _state(0, 5.0, 3.0, 1)
    b = _state(3, 5.0, 3.0, 1)
    c = _random_state(rng, 1)
    d = _random_state(rng, 2)
    plan = [
        (a, "xy", "closed-form"), (a, "pxpy", "closed-form"), (b, "xpx", "closed-form"),
        (b, "ypy", "closed-form"), (c, "xpy", "closed-form"), (d, "ypx", "closed-form"),
        (b, "xy", "oracle"), (b, "pxpy", "oracle"), (a, "xpx", "oracle"),
        (a, "ypy", "oracle"), (d, "xpy", "oracle"), (c, "ypx", "oracle"),
    ]
    jobs = []
    for i, (state, plane, pipeline) in enumerate(plan):
        fmt = "pgm" if i == 5 else "csv"
        name = f"slice{i:02d}-m{state['m']}-{plane}-{pipeline}.{fmt}"
        jobs.append({
            "id": name, "kind": "cli", "command": "slice", "state": state, "plane": plane,
            "pipeline": pipeline, "format": fmt, "out": name,
            "argv": ["slice", *_state_args(state), "--plane", plane, "--pipeline", pipeline,
                     "--format", fmt, "--threads", str(threads), "--out", name],
        })
    return jobs


def adjudicate_jobs(seed: int, threads: int) -> list[dict]:
    """Eighteen 200-point validations: m = 0..5 at three width pairs."""
    rng = random.Random(f"adjudicate-{seed}")
    widths = [(5.0, 3.0)] + [(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)) for _ in range(2)]
    jobs = []
    for w, (sx, sy) in enumerate(widths):
        for m in range(6):
            state = _state(m, sx, sy, rng.choice((1, -1)))
            point_seed = rng.randrange(1, 2**31)
            name = f"validate-w{w}-m{m}.jsonl"
            jobs.append({
                "id": name, "kind": "cli", "command": "validate", "state": state,
                "seed": point_seed, "n_points": 200, "out": name,
                "argv": ["validate", *_state_args(state), "--n-points", "200",
                         "--seed", str(point_seed), "--threads", str(threads), "--out", name],
            })
    return jobs


def _sweep_job(name, pipeline, relation, zeta_min, zeta_max, steps, m_list, sign, threads, known_fault=False):
    return {
        "id": name, "kind": "cli", "command": "sweep", "pipeline": pipeline, "relation": relation,
        "zeta_min": zeta_min, "zeta_max": zeta_max, "steps": steps,
        "m_list": list(m_list), "sign": sign, "out": name, "known_fault": known_fault,
        "argv": ["sweep", "--pipeline", pipeline, "--relation", relation,
                 "--zeta-min", repr(zeta_min), "--zeta-max", repr(zeta_max), "--steps", str(steps),
                 "--m-list", ",".join(str(m) for m in m_list), "--sign", str(sign),
                 "--threads", str(threads), "--out", name],
    }


def sweep_jobs(seed: int, threads: int) -> list[dict]:
    """Three closed-form sweeps, two oracle sweeps, and the deep oracle sweep.

    The closed-form windows stay where that pipeline's covariance is
    physical: zeta_x in [-4, 2] on the zeta relation and zeta_x >= -0.5 on
    the sigma-proportional one (it fails below zeta_x = -1 for m >= 1).
    """
    rng = random.Random(f"sweep-{seed}")
    return [
        _sweep_job("sweep-cf-zeta.csv", "closed-form", "zeta", rng.uniform(-4.0, -3.5),
                   rng.uniform(1.5, 2.0), 6, (0, 1, 2, 3), 1, threads),
        _sweep_job("sweep-cf-sigma.csv", "closed-form", "sigma-proportional", rng.uniform(-0.5, -0.25),
                   rng.uniform(1.5, 2.0), 6, (0, 1, 2, 3), 1, threads),
        _sweep_job("sweep-cf-zeta-minus.csv", "closed-form", "zeta", rng.uniform(-3.0, -2.5),
                   rng.uniform(0.5, 1.0), 6, (1, 2, 3, 4), -1, threads),
        _sweep_job("sweep-oracle-zeta.csv", "oracle", "zeta", rng.uniform(-4.0, -3.5),
                   rng.uniform(1.5, 2.0), 100, (0, 1, 2, 3, 4, 5), 1, threads),
        _sweep_job("sweep-oracle-sigma.csv", "oracle", "sigma-proportional", rng.uniform(-4.0, -3.5),
                   rng.uniform(1.5, 2.0), 100, (0, 1, 2, 3, 4, 5), rng.choice((1, -1)), threads),
        _sweep_job("sweep-oracle-deep.csv", "oracle", "zeta", DEEP_SWEEP["zeta_min"], DEEP_SWEEP["zeta_max"],
                   DEEP_SWEEP["steps"], DEEP_SWEEP["m_list"], 1, threads, known_fault=True),
    ]


def invariants_jobs(seed: int, threads: int) -> list[dict]:
    """Two jobs, each the integral half of ``qev selftest`` at one width pair:
    the oracle's integrals for m = 0..5."""
    rng = random.Random(f"invariants-{seed}")
    jobs = []
    for w in range(2):
        sx, sy = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        states = [_state(m, sx, sy, rng.choice((1, -1))) for m in range(6)]
        name = f"invariants-w{w}.json"
        jobs.append({"id": name, "kind": "invariants", "states": states, "out": name})
    return jobs


WORKLOADS = {
    "figure": figure_jobs,
    "adjudicate": adjudicate_jobs,
    "sweep": sweep_jobs,
    "invariants": invariants_jobs,
}
