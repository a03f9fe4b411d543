"""Self-tests of the benchmark's helper logic: span arithmetic, wrapper
installation, the trajectory checker and the child launcher."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_subtracts_spans_and_leaves(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "time", clock)
    t = tracing.Tracer()

    def tick(dt):
        clock.now += dt

    leaf = t.wrap("m.leaf", tracing.LEAF, lambda: tick(1.0))
    outer_leaf = t.wrap("m.outer_leaf", tracing.LEAF, lambda: (tick(0.5), leaf()))
    inner = t.wrap("m.inner", tracing.SPAN, lambda: (tick(2.0), leaf()))
    outer = t.wrap("m.outer", tracing.SPAN, lambda: (tick(3.0), inner(), leaf(), outer_leaf()))
    outer()

    tot = t.totals()
    # outer: 3 own + inner (2 + 1) + leaf 1 + outer_leaf (0.5 + 1)
    assert tot["m.outer"] == {"calls": 1, "busy_s": 8.5, "self_s": 3.0}
    assert tot["m.inner"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    # a leaf inside another leaf keeps its own time but is not subtracted twice
    assert tot["m.leaf"]["calls"] == 3
    assert tot["m.leaf"]["busy_s"] == 3.0
    assert tot["m.outer_leaf"]["busy_s"] == 1.5
    assert [s[3] for s in t.spans] == [None, 0]


def test_span_records_even_when_the_call_raises():
    t = tracing.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("m.boom", tracing.SPAN, boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert t.totals()["m.boom"]["calls"] == 1
    assert not t._stack


def test_install_wraps_every_binding_and_uninstall_restores():
    from champagne import criteria, harness, whitney

    original = whitney.intersecting_cubes
    assert criteria.intersecting_cubes is original
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        assert criteria.intersecting_cubes is whitney.intersecting_cubes
        assert whitney.intersecting_cubes is not original
        assert harness.aikawa_sum is criteria.aikawa_sum
    finally:
        tracing.uninstall(undo)
    assert whitney.intersecting_cubes is original
    assert criteria.intersecting_cubes is original


def test_absent_targets_read_as_zero():
    t = tracing.Tracer()
    gone = [("whitney.intersecting_cubes", "champagne.whitney", "no_such_function",
             tracing.LEAF, None),
            ("spatial.BallIndex.init", "champagne.spatial", "NoSuchClass.__init__",
             tracing.SPAN, None),
            ("x.f", "no_such_module", "f", tracing.SPAN, None)]
    assert tracing.install(t, gone) == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    metrics = tracing.layer_metrics(t, declared, 0)
    # every declared metric but the overhead, which run.py measures, has a value
    assert set(declared) - set(metrics) == {"trace.overhead_s"}
    assert set(metrics.values()) == {0.0}


def _bubbles():
    centers = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])
    radii = np.array([0.1, 0.05, 0.2])
    return centers, radii


def test_trajectory_checker_accepts_consistent_outcomes():
    centers, radii = _bubbles()
    tags = ["hit", "hit", "boundary", "timeout"]
    bubbles = [0, 2, -1, -1]
    points = [[0.55, 0.0], [0.0, 0.65], [0.99, 0.0], [0.0, 0.0]]
    assert checks.trajectory_failures(centers, radii, tags, bubbles, points) == []


def test_trajectory_checker_flags_a_planted_false_hit():
    centers, radii = _bubbles()
    tags = ["hit", "timeout"]
    bubbles = [1, -1]          # the point lies in bubble 0, not in bubble 1
    points = [[0.55, 0.0], [0.0, 0.0]]
    failures = checks.trajectory_failures(centers, radii, tags, bubbles, points)
    assert len(failures) == 1 and "false hit" in failures[0]


def test_trajectory_checker_flags_a_planted_missed_hit():
    centers, radii = _bubbles()
    tags = ["hit", "boundary", "timeout"]
    bubbles = [0, -1, -1]
    points = [[0.55, 0.0], [0.98, 0.0], [0.0, 0.45]]   # the timeout lies in bubble 2
    failures = checks.trajectory_failures(centers, radii, tags, bubbles, points)
    assert len(failures) == 1 and "missed hit" in failures[0] and "bubble 2" in failures[0]


def test_launcher_reports_the_childs_own_peak_rss_and_exit_status():
    # This process now holds over 150 MiB.  A child started straight from it
    # inherits that high-water mark in ru_maxrss; one started through
    # launch.py reports only its own and the small launcher's.
    ballast = np.ones(20_000_000)
    out = subprocess.run([sys.executable, str(HERE / "launch.py"), "--timeout", "60", "--",
                          sys.executable, "-c", "import sys; sys.exit(3)"],
                         stdout=subprocess.PIPE, check=True).stdout
    del ballast
    result = json.loads(out)
    assert result["status"] == 3
    assert 0 < result["rss_mb"] < 80
    assert result["wall_s"] > 0
