"""Each benchmark output check fires on a deliberately corrupted output.

Run from the repository root:  python3 -m pytest -q perfbench/selftest_checks.py
(kept out of the default test run: its name does not match test_*.py).
"""

from __future__ import annotations

import contextlib
import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@contextlib.contextmanager
def _no_span(name):
    yield


@pytest.fixture(scope="module")
def good():
    """Known-good results at the default seed, from the traced library route."""
    out = {name: w.traced(None, 1, "", _no_span)
           for name, w in wl.WORKLOADS.items() if name != "exhaustive"}
    out["exhaustive"] = {"rc": [0], **checks.VERIFY_REFERENCE}
    return out


def _fires(name, result, text, seed=None):
    witnesses = checks.CHECKS[name](result, seed)
    assert any(text in w for w in witnesses), witnesses


def test_good_results_pass(good):
    for name, result in good.items():
        assert checks.CHECKS[name](result, None) == [], name


@pytest.mark.parametrize("key,value,text", [
    ("verified", 2097151, "verified"),
    ("max_stop", 221, "reduced steps"),
    ("worst", 3732425, "reduced steps"),
    ("rc", [1], "exited"),
])
def test_exhaustive_corruptions(good, key, value, text):
    _fires("exhaustive", {**good["exhaustive"], key: value}, text)


def _orbits(good, edit):
    result = copy.deepcopy(good["orbits"])
    edit(result)
    return result


def test_orbits_csv_reference(good):
    bad = _orbits(good, lambda r: r.update(csv=r["csv"].replace(",311,", ",312,")))
    _fires("orbits", bad, "differs from the reference")


def test_orbits_conjugate_route(good):
    # a CSV whose maxima are too small for the sampled orbits, at a seed with no reference
    bad = _orbits(good, lambda r: r.update(csv=r["csv"].replace(",463,", ",100,")))
    _fires("orbits", bad, "exceed CSV maxima", seed=wl.TABLE1_SEED)


def test_orbits_families(good):
    _fires("orbits", _orbits(good, lambda r: r["families"].__setitem__(2, 3052)), "gamma probe")
    _fires("orbits", _orbits(good, lambda r: r["families"].__setitem__(3, [7])), "gamma probe")


def test_orbits_raster(good):
    def drop_row(r):
        rows = r["rasters"][1].splitlines()
        r["rasters"][1] = "\n".join(rows[:-1]) + "\n"

    _fires("orbits", _orbits(good, drop_row), "raster of")

    def flip(r):
        r["rasters"][0] = r["rasters"][0].replace("P1\n39 358\n1", "P1\n39 358\n0", 1)

    _fires("orbits", _orbits(good, flip), "row 0 differs")


def test_orbits_trajectory(good):
    def bump(r):
        r["trajectories"][0]["rows"][5][2] += 1

    _fires("orbits", _orbits(good, bump), "trajectory of")
    _fires("orbits", _orbits(good, lambda r: r["trajectories"][1].update(stopping_time=None)),
           "trajectory of")


@pytest.mark.parametrize("ells,rc", [
    ([[16, 100000, 0], [64, 100000, 1], [256, 100000, 0]], [1]),
    ([[16, 100000, 0], [64, 99999, 0], [256, 100000, 0]], [0]),
])
def test_audit_output(ells, rc):
    witnesses = checks.check_audit({"rc": rc, "ells": ells}, None)
    assert any("audit cells" in w for w in witnesses), witnesses


def test_audit_exit_code():
    ells = [[ell, wl.AUDIT_SAMPLES, 0] for ell in wl.AUDIT_ELLS]
    _fires("audit", {"rc": [1], "ells": ells}, "exited")


def test_audit_recount(good, monkeypatch):
    class Wrong:
        cell_counts = {("h1", "t1"): checks.AUDIT_PREFIX - 1}

    monkeypatch.setattr(checks, "audit_length_deltas", lambda *a, **k: Wrong)
    _fires("audit", good["audit"], "differ from the recount")


def test_audit_table_violation(good, monkeypatch):
    table = dict(checks.DELTA_TABLE)
    table[("h3", "t2")] = (0, 0)
    monkeypatch.setattr(checks, "DELTA_TABLE", table)
    _fires("audit", good["audit"], "outside ('h3', 't2')")


@pytest.mark.parametrize("key,value,text", [
    ("k_star", 5772, "does not put the first reversal"),
    ("k_star", 5774, "does not put the first reversal"),
    ("c", "0.503996", "integer route"),
    ("eps", "0.009687", "integer route"),
    ("rc", [1], "exited"),
])
def test_kstar_corruptions(good, key, value, text):
    _fires("kstar", {**good["kstar"], key: value}, text)


def test_integer_inequality_matches_the_scan():
    # ell 60 reverses first at k = 600 (acceptance criterion 01)
    assert not checks._reversed(599, 60) and checks._reversed(600, 60)
    assert [checks._reversed(k, 60) for k in range(1, 600)] == [False] * 599


def test_results_must_agree_across_passes(good):
    verdicts = run.Verdicts("exhaustive", None)
    ok = {"result": good["exhaustive"]}
    assert verdicts.failures(ok) == []
    swapped = {"result": {**good["exhaustive"], "worst": 3732423 + 2}}
    assert any("differs from the first pass" in w for w in verdicts.failures(swapped))
    assert verdicts.failures({"error": "pass process exited 1"}) == ["pass process exited 1"]


def test_self_times_subtract_children():
    spans = [{"name": "pass", "start": 0.0, "end": 10.0, "parent": None},
             {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
             {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
             {"name": "a", "start": 5.0, "end": 6.0, "parent": 0}]
    assert run.self_times(spans, 1) == {"pass": 6.0, "a": 3.0, "b": 1.0}
