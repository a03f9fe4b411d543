"""Output checks and digests for one workload's run directory.

Every check returns a list of failure messages; an empty list means the
check passed.  The checks read only the files the CLI wrote, and test
trajectory end points with their own KD-tree over the bubble centres rather
than with ``champagne.spatial.BallIndex``, so a defect in the index cannot
hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

DIGESTED = ("verdicts.json", "wiener_trace.csv", "estimate.json", "trajectories.csv")

# Relative slack on |x - c| <= r.  The CLI and this check compute the distance
# in different floating-point order; a point this close to a sphere is not
# expected from a continuous proposal distribution.
CONTAINMENT_RTOL = 1e-9


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(run_dir: Path) -> dict:
    """sha256 of each digested output that the run wrote."""
    return {name: sha256_file(run_dir / name) for name in DIGESTED if (run_dir / name).exists()}


def check_verdicts(run_dir: Path, expect_aggregate: str) -> list:
    """Aggregate verdict, positive separation, and finite ordered Aikawa totals."""
    with open(run_dir / "verdicts.json") as f:
        verdicts = json.load(f)
    failures = []
    if verdicts.get("aggregate") != expect_aggregate:
        failures.append(f"verdicts.json aggregate is {verdicts.get('aggregate')!r}, "
                        f"expected {expect_aggregate!r}")
    if not verdicts.get("separation", 0.0) > 0.0:
        failures.append("verdicts.json separation is not > 0")
    totals = verdicts.get("traces", {}).get("aikawa_total", [])
    if not totals:
        failures.append("verdicts.json has no Aikawa totals")
    for t in totals:
        lo, hi = t["lower"], t["upper"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            failures.append(f"Aikawa total at z_index {t['z_index']} is [{lo}, {hi}]")
    return failures


def check_wiener(run_dir: Path) -> list:
    """Each boundary point's final cumulative Wiener envelope is finite and ordered."""
    last = {}
    with open(run_dir / "wiener_trace.csv", newline="") as f:
        for row in csv.DictReader(f):
            last[row["z_index"]] = (float(row["cum_lower"]), float(row["cum_upper"]))
    if not last:
        return ["wiener_trace.csv has no rows"]
    return [
        f"Wiener total at z_index {z} is [{lo}, {hi}]"
        for z, (lo, hi) in last.items()
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi)
    ]


def read_estimate(run_dir: Path) -> dict:
    with open(run_dir / "estimate.json") as f:
        return json.load(f)


def check_estimate(run_dir: Path) -> list:
    """Outcome counts sum to n."""
    est = read_estimate(run_dir)
    total = sum(est["counts"].values())
    return [] if total == est["n"] else [f"estimate.json counts sum to {total}, n is {est['n']}"]


def read_bubbles(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Centres (n, d) and radii (n,) from a bubbles.csv (k, x_1..x_d, r)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:-1], table[:, -1]


def read_trajectories(path: Path) -> tuple[list, np.ndarray, np.ndarray]:
    """Outcome tags, reported bubble ids and final points from trajectories.csv."""
    tags, bubbles, points = [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for row in reader:
            tags.append(row[1])
            bubbles.append(int(row[3]))
            points.append([float(v) for v in row[4:]])
    return tags, np.asarray(bubbles, dtype=np.int64), np.asarray(points, dtype=float)


def trajectory_failures(centers, radii, tags, bubbles, points) -> list:
    """Flag false hits and missed hits.

    A ``hit`` must end inside (closed) the bubble it names.  A ``boundary`` or
    ``timeout`` end point must lie in no bubble at all; every bubble within
    the largest radius of the point is tested.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    points = np.asarray(points, dtype=float)
    failures = []
    hit_rows = [i for i, t in enumerate(tags) if t == "hit"]
    for i in hit_rows:
        k = int(bubbles[i])
        if not 0 <= k < radii.shape[0]:
            failures.append(f"trajectory {i}: hit names bubble {k}, which does not exist")
            continue
        dist = math.sqrt(float(((points[i] - centers[k]) ** 2).sum()))
        if dist > radii[k] * (1.0 + CONTAINMENT_RTOL):
            failures.append(f"trajectory {i}: false hit, {dist!r} from bubble {k} "
                            f"of radius {radii[k]!r}")

    miss_rows = np.asarray([i for i, t in enumerate(tags) if t != "hit"], dtype=np.int64)
    if miss_rows.size and radii.size:
        near = cKDTree(centers).query_ball_point(points[miss_rows], float(radii.max()))
        lengths = np.fromiter((len(c) for c in near), dtype=np.int64, count=len(near))
        if lengths.sum():
            owner_row = np.repeat(miss_rows, lengths)
            cand = np.concatenate([np.asarray(c, dtype=np.int64) for c in near if c])
            dist = np.sqrt(((points[owner_row] - centers[cand]) ** 2).sum(axis=1))
            inside = dist < radii[cand] * (1.0 - CONTAINMENT_RTOL)
            for i, k in zip(owner_row[inside], cand[inside]):
                failures.append(f"trajectory {int(i)}: missed hit, {tags[int(i)]} end point "
                                f"lies in bubble {int(k)}")
    return failures


def check_trajectories(run_dir: Path) -> list:
    """trajectories.csv agrees with estimate.json and with the bubbles."""
    est = read_estimate(run_dir)
    tags, bubbles, points = read_trajectories(run_dir / "trajectories.csv")
    counts = {tag: tags.count(tag) for tag in est["counts"]}
    if len(tags) != est["n"] or counts != est["counts"]:
        return [f"trajectories.csv outcomes {counts} over {len(tags)} rows disagree with "
                f"estimate.json {est['counts']} over {est['n']}"]
    centers, radii = read_bubbles(run_dir / "bubbles.csv")
    return trajectory_failures(centers, radii, tags, bubbles, points)
