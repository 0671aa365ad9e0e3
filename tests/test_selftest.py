"""The selftest table: well-formed rows and one gate that can fail them all."""

import io
import math

import pytest

from qev import entanglement, selftest


def test_rows_have_unique_names_and_finite_positive_tolerances():
    names = [name for name, _, _ in selftest.CHECKS]
    assert len(set(names)) == len(names)
    assert all(math.isfinite(tol) and tol > 0 for _, tol, _ in selftest.CHECKS)


def test_zero_tol_scale_fails_every_row():
    buffer = io.StringIO()
    assert selftest.run_selftest(tol_scale=0, verbose=True, stream=buffer) == 3
    *rows, summary = buffer.getvalue().splitlines()
    assert len(rows) == len(selftest.CHECKS)
    assert summary.startswith(f"0/{len(rows)} checks passed")
    assert all(row.startswith("FAIL") for row in rows)
    # every row reports its measured error against its (scaled) tolerance
    assert all(" error " in row and " vs tol 0.0e+00: " in row for row in rows)


@pytest.mark.parametrize("route", ["_wavefunction_entries", "oracle_covariance_entries"])
def test_nudged_moment_route_fails_the_svs_row(monkeypatch, route):
    row = next(row for row in selftest.CHECKS if row[0].startswith("covariance = S V S"))
    row[2]()  # the memoised unit-width covariances are warm before the patch
    original = getattr(entanglement, route)

    def nudged(params):
        entries = dict(original(params))
        entries["xx"] *= 1.0 + 1e-4
        return entries

    monkeypatch.setattr(entanglement, route, nudged)
    monkeypatch.setattr(selftest, "CHECKS", [row])
    buffer = io.StringIO()
    assert selftest.run_selftest(stream=buffer) == 3
    line = buffer.getvalue().splitlines()[0]
    assert line.startswith("FAIL  covariance = S V S") and "raised" not in line
