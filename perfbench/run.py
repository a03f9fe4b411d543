#!/usr/bin/env python3
"""Benchmark for champagne: CLI workloads, end-to-end timings, output checks,
and an outside-in per-layer trace.

    python3 perfbench/run.py --workload w2-sim --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every subcommand of the workload runs as its own
``python -m champagne`` child, one at a time, in pipeline order, a fixed
number of times each; a stage's time is the median of its runs.  Passes
repeat until ``--seconds`` have gone by, with at least one.  Gated times are
rescaled to a fixed host speed, measured by timing reference work just before
and after every child (``Children.run``).
With ``--trace 1`` the workload runs in this process through
``champagne.harness.cmd_*``, once plainly and once with timing wrappers
installed around each layer's public functions (see tracing.py).  Either way
the outputs are checked, and the last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from BENCHMARK.json; see perfbench/README.md for their meaning.

The program is imported from the ``src`` directory beside this one, so
nothing needs installing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SOURCE_DATE_EPOCH = "1700000000"
# Set before numpy is imported here; every CLI child inherits them.
os.environ.update(
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"     # run directories and the digest record
BUDGET_S = 165.0                    # the whole run must end within 180 s
SETUP_SAMPLES = 5
# About the median reference_seconds() on the baseline host.  Each child's
# time is rescaled by REF_NOMINAL_S over the reference times around it, so
# that a host that runs everything 30 % slower for a few minutes does not
# read as a regression.
REF_NOMINAL_S = 0.25


@dataclass(frozen=True)
class Workload:
    """``runs`` maps each stage, in pipeline order, to how many times a pass
    runs its child; a stage's time is the median of its runs.  The counts are
    fixed so that a slow host does not also get fewer samples."""

    n_traj: int
    runs: dict

    def run_config(self, seed: int) -> dict:
        """RunConfig JSON for the roadmap's W2 bubbles (unit disk, 6 shells,
        54,743 bubbles, Whitney level 8) with a boundary grid of 4.  The seed
        drives both the shell rotations and the simulator."""
        return {
            "format_version": "1",
            "domain": {"center": [0.0, 0.0], "radius": 1.0},
            "constants": {"alpha": 1.5},
            "profile": {"kind": "constant", "c": 0.1},
            "weight": {"kind": "one"},
            "shells": {"a": 0.5, "count": 6, "seed": seed},
            "whitney": {"max_level": 8},
            "criteria": {"grid": 4, "wiener_n_max": 24},
            "per_trajectory_csv": True,
            "sim": {"alpha": 1.5, "h": 1e-4, "boundary_eps": 1e-3, "max_steps": 5000,
                    "n_traj": self.n_traj, "seed": seed},
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.  Both
# run simulate, which timeout_frac needs on every workload.
WORKLOADS = {
    # The roadmap's W2 with grid 4 instead of 32: criteria dominates.
    "w2-criteria": Workload(4000, {"generate": 4, "criteria": 2, "simulate": 1}),
    # The simulation half of W2 with twice the roadmap's trajectories: the step
    # loop dominates.
    "w2-sim": Workload(4000, {"generate": 4, "simulate": 3}),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def code_hash() -> str:
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------------
# untraced run: one child process per subcommand
# ---------------------------------------------------------------------------

def reference_seconds() -> float:
    """Wall time of fixed work that does not touch champagne: a Python loop,
    a numpy sort and KD-tree queries, the kinds of work the CLI does."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    points = rng.random((100_000, 2))
    cKDTree(points).query_ball_point(points[:20_000], 0.005)
    np.sort(rng.random(1_000_000))
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Children:
    """Runs measured children through launch.py, one at a time, and times the
    reference work just before and just after each, so that every child's
    time can be rescaled by the host speed of its own moment."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline          # a perf_counter value; later children are killed
        self.refs = []                    # every reference_seconds() taken

    def run(self, argv, stderr_path=None) -> dict:
        """The child's ``wall_s``, ``rss_mb`` (peak RSS) and exit ``status``,
        and ``scaled_s``: its wall time times REF_NOMINAL_S over the mean of
        the reference times just before and after it."""
        before = reference_seconds()
        launcher = [sys.executable, str(HERE / "launch.py"),
                    "--timeout", f"{max(self.deadline - time.perf_counter(), 0.0):.3f}"]
        if stderr_path:
            launcher += ["--stderr", str(stderr_path)]
        out = subprocess.run(launcher + ["--"] + argv, env=self.env, cwd=ROOT,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True).stdout
        after = reference_seconds()
        self.refs += [before, after]
        child = json.loads(out)
        child["scaled_s"] = child["wall_s"] * REF_NOMINAL_S / ((before + after) / 2)
        return child

    def host_scale(self) -> float:
        """REF_NOMINAL_S over the run's median reference time."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def untraced_pass(ledger, wl: Workload, cfg_path: Path, run_dir: Path, children: Children,
                  samples: dict) -> float | None:
    """One pass: every stage's child, ``wl.runs[stage]`` times each, in pipeline
    order.  Appends each child's result to ``samples`` and returns the largest child
    peak RSS, or None if a child failed.  A rerun of a stage must rewrite
    byte-identical outputs."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rss = []
    for stage, count in wl.runs.items():
        argv = [sys.executable, "-m", "champagne", stage,
                "--config", str(cfg_path), "--out", str(run_dir)]
        err_path = run_dir / f"{stage}.stderr"
        digests = []
        for _ in range(count):
            child = children.run(argv, err_path)
            messages = []
            if child["status"] != 0:
                err = err_path.read_text(errors="replace").strip()
                messages = [f"exited {child['status']}: {err[-500:]}"]
            ledger.record(stage, messages)
            if messages:
                return None
            samples.setdefault(stage, []).append(child)
            rss.append(child["rss_mb"])
            digests.append(checks.output_digests(run_dir))
        if count > 1:
            ledger.record(f"{stage} reruns", [f"run {i + 1} wrote outputs unlike run 1"
                                              for i, d in enumerate(digests) if d != digests[0]])
    return max(rss)


def setup_samples(ledger, children: Children) -> list:
    """Results of children that start the interpreter and import the harness."""
    argv = [sys.executable, "-c", "import champagne.harness"]
    out = []
    for _ in range(SETUP_SAMPLES):
        child = children.run(argv)
        status = child["status"]
        ledger.record("setup", [f"importing champagne.harness exited {status}"] if status else [])
        if status:
            return []
        out.append(child)
    return out


# ---------------------------------------------------------------------------
# traced run: in process, through champagne.harness.cmd_*
# ---------------------------------------------------------------------------

def inprocess_pass(ledger, harness, wl: Workload, cfg_path: Path, run_dir: Path):
    """Wall seconds of the in-process pipeline, or None if a subcommand raised."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wall = 0.0
    for stage in wl.runs:
        cfg = harness.RunConfig.load(cfg_path)
        t0 = time.perf_counter()
        try:
            getattr(harness, f"cmd_{stage}")(cfg, run_dir)
        except Exception as exc:  # a failed operation, like a CLI child's exit 3
            ledger.record(f"cmd_{stage}", [f"raised {type(exc).__name__}: {exc}"])
            return None
        wall += time.perf_counter() - t0
        ledger.record(f"cmd_{stage}", [])
    return wall


def output_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# operations and output checks
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted (subcommands and output checks) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []     # (operation, messages)

    def record(self, op: str, messages: list) -> None:
        self.attempted += 1
        if messages:
            self.failures.append((op, messages))

    def check(self, op: str, fn, *args) -> None:
        try:
            messages = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            messages = [f"{type(exc).__name__}: {exc}"]
        self.record(op, messages)


def check_outputs(ledger: Ledger, wl: Workload, run_dir: Path) -> None:
    if "criteria" in wl.runs:
        # constant phi with OneWeight diverges, so the shells are unavoidable
        ledger.check("verdicts", checks.check_verdicts, run_dir, "unavoidable")
        ledger.check("wiener totals", checks.check_wiener, run_dir)
    ledger.check("estimate counts", checks.check_estimate, run_dir)
    ledger.check("trajectories", checks.check_trajectories, run_dir)


def digest_failures(name: str, seed: int, digests: list) -> list:
    """The given output digests, and those of every earlier run of the same
    workload, seed and code in this checkout, must all be identical."""
    failures = [f"outputs {i + 1} differ from outputs 1"
                for i, d in enumerate(digests) if d != digests[0]]
    record_path = WORK / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{name} seed={seed} code={code_hash()[:16]}"
    if key in record and record[key] != digests[0]:
        failures.append(f"outputs differ from an earlier run with {key}")
    record.setdefault(key, digests[0])
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return failures


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def info(msg: str) -> None:
    print(f"# {msg}", flush=True)


def measure_untraced(ledger, name: str, wl: Workload, seed: int, seconds: float,
                     t_start: float) -> dict:
    children = Children(child_env(), t_start + BUDGET_S)
    run_dir = WORK / name / "run"
    cfg_path = WORK / name / "run_config.json"
    setup = setup_samples(ledger, children)
    if not setup:
        return {}
    samples, peaks = {"setup": setup}, []
    rss_floor = children.run([sys.executable, "-c", "pass"])["rss_mb"]
    t_loop = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        peak = untraced_pass(ledger, wl, cfg_path, run_dir, children, samples)
        if peak is None:
            return {}
        peaks.append(peak)
        check_outputs(ledger, wl, run_dir)
        now = time.perf_counter()
        if now - t_loop >= seconds or now + 1.5 * (now - t_pass) > children.deadline:
            break
    raw, scaled = {}, {}
    for stage, runs in samples.items():
        raw[stage] = statistics.median(c["wall_s"] for c in runs)
        scaled[stage] = statistics.median(c["scaled_s"] for c in runs)
        info(f"{stage}: {len(runs)} run(s), wall " + " ".join(f"{c['wall_s']:.3f}" for c in runs)
             + " s, rescaled " + " ".join(f"{c['scaled_s']:.3f}" for c in runs) + " s")
    info(f"reference work: {len(children.refs)} runs, median {statistics.median(children.refs):.4f} s"
         f" (nominal {REF_NOMINAL_S} s)")
    digests = checks.output_digests(run_dir)
    ledger.record("digests", digest_failures(name, seed, [digests]))
    info("digests " + json.dumps(digests, sort_keys=True))
    est = checks.read_estimate(run_dir)
    setup_raw_s, setup_s = raw.pop("setup"), scaled.pop("setup")
    metrics = {f"{stage}_s": t for stage, t in scaled.items()}
    metrics.update(
        setup_s=setup_s,
        wall_s=sum(scaled.values()),
        setup_raw_s=setup_raw_s,
        wall_raw_s=sum(raw.values()),
        host_scale=children.host_scale(),
        peak_rss_mb=max(peaks),
        rss_floor_mb=rss_floor,
        timeout_frac=est["counts"]["timeout"] / est["n"],
    )
    return metrics


def measure_traced(ledger, name: str, wl: Workload, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    from champagne import harness

    cfg_path = WORK / name / "run_config.json"
    plain_dir, traced_dir = WORK / name / "plain", WORK / name / "traced"
    plain_wall = inprocess_pass(ledger, harness, wl, cfg_path, plain_dir)
    if plain_wall is None:
        return {}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced_wall = inprocess_pass(ledger, harness, wl, cfg_path, traced_dir)
    finally:
        tracing.uninstall(undo)
    tracer.dump(WORK / name / "trace.json")
    if traced_wall is None:
        return {}
    check_outputs(ledger, wl, traced_dir)
    digests = [checks.output_digests(plain_dir), checks.output_digests(traced_dir)]
    ledger.record("digests", digest_failures(name, seed, digests))
    info("digests " + json.dumps(digests[1], sort_keys=True))
    info(f"in-process wall {plain_wall:.3f} s untraced, {traced_wall:.3f} s traced")
    metrics = tracing.layer_metrics(tracer, declared_metrics(True), output_bytes(traced_dir))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()

    if not (SRC / "champagne" / "harness.py").is_file():
        print(f"error: no champagne sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    wl = WORKLOADS[args.workload]
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    cfg_path = WORK / args.workload / "run_config.json"
    cfg_path.write_text(json.dumps(wl.run_config(args.seed), indent=1) + "\n")
    env_info = environment()
    info("environment " + json.dumps(env_info, sort_keys=True))

    ledger = Ledger()
    if args.trace:
        values = measure_traced(ledger, args.workload, wl, args.seed)
    else:
        values = measure_untraced(ledger, args.workload, wl, args.seed, args.seconds, t_start)
    for op, messages in ledger.failures:
        for msg in messages[:5]:
            info(f"FAILED {op}: {msg}")
    informational = {k: v for k, v in values.items() if k not in units}
    for key, value in sorted(informational.items()):
        info(f"{key} {value:.4f} (informational, not gated)")
    correct = not ledger.failures
    if correct and set(units) - set(values):
        raise RuntimeError(f"no value measured for {sorted(set(units) - set(values))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    (WORK / args.workload / "result.json").write_text(json.dumps({
        "seed": args.seed, "trace": args.trace, "environment": env_info,
        "failures": ledger.failures, "metrics": metrics, "informational": informational,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
