"""Outside-in layer trace: timing wrappers installed around champagne's
public functions for one in-process run, and the per-layer metrics read from
what they recorded.

Functions called more than about 1e5 times per workload are *leaves*: they
keep aggregate counters only.  Every other wrapped function records a span
(name, start, end, parent).  A span's self time is its duration minus the
time of the wrapped calls made inside it, spans and leaves alike.
Everything is held in memory; ``Tracer.dump`` writes it out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

SPAN, LEAF = "span", "leaf"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, child seconds]
        self._stack = []
        self._in_leaf = False
        self.counters = defaultdict(float)
        self.outcome_steps = None  # per-trajectory step counts seen by cmd_simulate

    def wrap(self, name: str, kind: str, fn, observe=None):
        """Wrapper around fn that records under ``name``.  ``observe(tracer,
        result, args)`` may add counts taken from the call's arguments or result."""
        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                nested = self._in_leaf
                self._in_leaf = True
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._in_leaf = nested
                    # a leaf inside a leaf is already inside that leaf's time
                    if not nested and self._stack:
                        self.spans[self._stack[-1]][4] += dt
                self.counters[name + ".calls"] += 1
                self.counters[name + ".busy_s"] += dt
                if observe is not None:
                    observe(self, result, args)
                return result

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            t0 = time.perf_counter()
            self.spans.append([name, t0, None, parent, 0.0])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][2] = t1
                if parent is not None:
                    self.spans[parent][4] += t1 - t0
            if observe is not None:
                observe(self, result, args)
            return result

        return span

    def totals(self) -> dict:
        """name -> {"calls", "busy_s", "self_s"} over spans and leaves."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, _, child in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child
        for key, value in self.counters.items():
            name, _, stat = key.rpartition(".")
            if stat in ("calls", "busy_s"):
                out[name][stat] += value
                if stat == "busy_s":
                    out[name]["self_s"] += value
        return dict(out)

    def dump(self, path) -> None:
        t_origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                "spans": [
                    {"name": n, "start": s - t_origin, "end": e - t_origin, "parent": p}
                    for n, s, e, p, _ in self.spans
                ],
                "counters": dict(self.counters),
            }, f, indent=0)
            f.write("\n")


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _add(tracer, key, value):
    tracer.counters[key] += float(value)


def _obs_shell_config(t, config, args):
    _add(t, "bubbles.n", config.n)


def _obs_decompose(t, dec, args):
    _add(t, "whitney.decompose.cubes", len(dec))


def _obs_intersecting(t, ids, args):
    _add(t, "whitney.intersecting_cubes.empty", ids.size == 0)


def _obs_aikawa(t, trace, args):
    _add(t, "criteria.aikawa_sum.cubes", trace.cube_ids.size)
    _add(t, "criteria.aikawa_sum.uncovered", trace.uncovered_bubbles.size)
    _add(t, "criteria.aikawa_sum.bubbles", args[1].n)


def _obs_stable(t, xi, args):
    _add(t, "rng.stable_vectors.draws", xi.shape[0])


def _obs_contains(t, result, args):
    hit, _ = result
    _add(t, "spatial.BallIndex.contains_batch.points", hit.shape[0])
    _add(t, "spatial.BallIndex.contains_batch.hits", hit.sum())


def _obs_estimate(t, result, args):
    if not isinstance(result, tuple):
        return
    estimate, (_, steps, _, _) = result
    t.outcome_steps = steps
    _add(t, "simulate.hits", estimate.counts["hit"])
    _add(t, "simulate.timeouts", estimate.counts["timeout"])


# (metric prefix, defining module, qualified name, kind, observer)
TARGETS = [
    ("harness.cmd_generate", "champagne.harness", "cmd_generate", SPAN, None),
    ("harness.cmd_criteria", "champagne.harness", "cmd_criteria", SPAN, None),
    ("harness.cmd_simulate", "champagne.harness", "cmd_simulate", SPAN, None),
    ("bubbles.generate_shell_config", "champagne.bubbles", "generate_shell_config", SPAN,
     _obs_shell_config),
    ("bubbles.BubbleConfig.disjointness_report", "champagne.bubbles",
     "BubbleConfig.disjointness_report", SPAN, None),
    ("bubbles.BubbleConfig.to_csv", "champagne.bubbles", "BubbleConfig.to_csv", SPAN, None),
    ("bubbles.BubbleConfig.from_csv", "champagne.bubbles", "BubbleConfig.from_csv", SPAN, None),
    ("whitney.decompose", "champagne.whitney", "decompose", SPAN, _obs_decompose),
    ("whitney.intersecting_cubes", "champagne.whitney", "intersecting_cubes", LEAF,
     _obs_intersecting),
    ("whitney.max_cubes_per_ball", "champagne.whitney", "max_cubes_per_ball", SPAN, None),
    ("whitney.bubble_cube_ratio_bound", "champagne.whitney", "bubble_cube_ratio_bound", SPAN,
     None),
    ("whitney.WhitneyDecomposition.cube", "champagne.whitney", "WhitneyDecomposition.cube",
     LEAF, None),
    ("kernels.capacity_ball_envelope", "champagne.kernels", "capacity_ball_envelope", LEAF,
     None),
    ("kernels.capped_green_envelope", "champagne.kernels", "capped_green_envelope", LEAF, None),
    ("criteria.classify_avoidability", "champagne.criteria", "classify_avoidability", SPAN,
     None),
    ("criteria.aikawa_sum", "champagne.criteria", "aikawa_sum", SPAN, _obs_aikawa),
    ("criteria.wiener_dyadic_sum", "champagne.criteria", "wiener_dyadic_sum", SPAN, None),
    ("criteria.quasi_additivity_interval", "champagne.criteria", "quasi_additivity_interval",
     SPAN, None),
    ("rng.stable_vectors", "champagne.rng", "stable_vectors", SPAN, _obs_stable),
    ("spatial.BallIndex.init", "champagne.spatial", "BallIndex.__init__", SPAN, None),
    ("spatial.BallIndex.contains_batch", "champagne.spatial", "BallIndex.contains_batch", SPAN,
     _obs_contains),
    ("simulate.estimate_hitting", "champagne.simulate", "estimate_hitting", SPAN,
     _obs_estimate),
]


def install(tracer: Tracer, targets=TARGETS) -> list:
    """Wrap every target that exists; returns undo records for ``uninstall``.

    A module-level function is replaced under every name a loaded champagne
    module binds to it (``from .x import f`` copies the binding), so callers
    see the wrapper wherever they look it up.  A target that no longer
    exists is skipped and its metrics read as zero.
    """
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "champagne" or name.startswith("champagne."))]
    for name, module_name, qualname, kind, observe in targets:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, kind, raw.__func__, observe))
            else:
                wrapped = tracer.wrap(name, kind, raw, observe)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, kind, original, observe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, names, output_bytes: int) -> dict:
    """Value of each named per-layer metric that the trace can give.

    ``<target>.calls``, ``.busy_s`` and ``.self_s`` come from the target's
    spans or counters; the rest are derived below.  Absent or uncalled
    functions read 0.
    """
    tot = tracer.totals()
    c = tracer.counters
    steps = tracer.outcome_steps
    steps = np.zeros(1, dtype=np.int64) if steps is None else np.asarray(steps)
    contains = "spatial.BallIndex.contains_batch"
    derived = {
        "harness.output_bytes": float(output_bytes),
        "bubbles.n": c["bubbles.n"],
        "whitney.decompose.cubes": c["whitney.decompose.cubes"],
        "whitney.intersecting_cubes.empty_frac": _ratio(
            c["whitney.intersecting_cubes.empty"], c["whitney.intersecting_cubes.calls"]),
        "criteria.aikawa_sum.cubes": c["criteria.aikawa_sum.cubes"],
        "criteria.aikawa_sum.uncovered_frac": _ratio(
            c["criteria.aikawa_sum.uncovered"], c["criteria.aikawa_sum.bubbles"]),
        "criteria.self_s": sum(v["self_s"] for k, v in tot.items() if k.startswith("criteria.")),
        "rng.stable_vectors.draws": c["rng.stable_vectors.draws"],
        f"{contains}.points": c[f"{contains}.points"],
        f"{contains}.hit_ratio": _ratio(c[f"{contains}.hits"], c[f"{contains}.points"]),
        "simulate.steps_total": float(steps.sum()),
        "simulate.steps_p50": float(np.percentile(steps, 50)),
        "simulate.steps_p99": float(np.percentile(steps, 99)),
        "simulate.hits": c["simulate.hits"],
        "simulate.timeouts": c["simulate.timeouts"],
    }
    targets = {t[0] for t in TARGETS}
    out = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif prefix in targets and stat in ("calls", "busy_s", "self_s"):
            out[name] = float(tot.get(prefix, {}).get(stat, 0.0))
    return out
