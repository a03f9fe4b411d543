"""Monte-Carlo approximation of the censored stable process and estimation of
the bubble-hitting probability before the lifetime.

An Euler jump-suppression chain proposes x + s(x)*xi, with xi a standardized
isotropic alpha-stable vector, and suppresses a proposal that leaves
D = B(c, R): the discrete analog of censoring.  The step is the local bubble
scale s(x) = kappa*delta*phi(1 - delta/R), with delta = R - |x - c| and
kappa = 0.25/median|xi|.  A jump s(x)*xi is what the stable process does in
time s(x)**alpha, so the chain is an Euler scheme for the censored process
time-changed by dt = s(X)**alpha.  A time change keeps the paths and hence
every hitting probability; the one error is the chain's discretisation bias,
which the tests measure against killed walk-on-spheres.  The lifetime proxy
delta_D < boundary_eps biases p_hat downward; a running trajectory has
delta >= boundary_eps, so its step is never 0.

Randomness is counter-based per trajectory, so estimates are bitwise
independent of batching.  Bitwise on one host: the draws also depend on
which of numpy's SIMD loops the CPU selects (see ``rng``).  The step never
reads the bubbles, so nested configurations run with the same seed share
each path until the larger one is hit; delta/R is scale-free, so a
power-of-two dilation of the run dilates every trajectory exactly.
Trajectories run in lockstep, in passes of a block of steps over those
still running: one draw of random vectors and one ball-index query per
pass, not per step.  Blindness to the bubbles is also what makes this
exact: a block's path is computed before the query, each trajectory's
outcome is its first hit or boundary step, and its work past that step is
discarded.

The counter streams also make every trajectory a function of its own id
alone (and of the host's numpy loops), so the ids can be split between
processes without changing a bit.
``estimate_hitting`` splits them into one contiguous block per CPU this
process may use, runs block 0 itself and each other block in a worker
forked after the ball index is built, and concatenates the blocks in id
order.  Workers are forked, not threads, because a draw is dominated by
Kanter's sines and Box-Muller's sines and cosines, and two threads sharing
the interpreter lock ran no faster than one; and forked, not spawned by
``multiprocessing``, so that they inherit the configuration and its index
instead of unpickling them.

Beside its outcome arrays, a pass holds the temporaries of at most
_BLOCK_DRAWS rows: the block's draws, path and ball-index query (which
``spatial`` splits further).  ``median_unit_norm`` draws _MEDIAN_BLOCK
vectors at a time and keeps only their norms.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .bubbles import BubbleConfig
from .geometry import row_norms
from .rng import stable_vectors, stream_keys

__all__ = [
    "SimParams",
    "HitEstimate",
    "estimate_hitting",
    "median_unit_norm",
]

HIT, BOUNDARY, TIMEOUT = 0, 1, 2
_TAGS = {HIT: "hit", BOUNDARY: "boundary", TIMEOUT: "timeout"}
_WILSON_Z = 1.959963984540054  # 95%
# draws per pass of the step loop: m running trajectories take
# max(1, _BLOCK_DRAWS // m) steps per pass
_BLOCK_DRAWS = 1 << 13
# stable vectors drawn at a time by median_unit_norm
_MEDIAN_BLOCK = 1 << 12
# in every estimate.json, and with a "simulator: " prefix in every manifest
APPROXIMATION_NOTES = [
    "Euler jump-suppression chain with step kappa*delta*phi(1 - delta/R), a time "
    "change of the censored process: its discretisation bias is not corrected",
    "lifetime proxy delta_D < boundary_eps biases p_hat downward",
]


@dataclass(frozen=True)
class SimParams:
    """Simulation parameters.

    The step rule does not read ``h``: it is the time step of an earlier
    fixed-step rule, kept so that run configurations that set it still load.
    """

    alpha: float
    h: float = 1e-4
    boundary_eps: float = 1e-3
    max_steps: int = 20_000
    n_traj: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")
        if not self.h > 0:
            raise ValueError("h must be > 0")
        if not self.boundary_eps > 0:
            raise ValueError("boundary_eps must be > 0")
        if self.max_steps < 1 or self.n_traj < 1:
            raise ValueError("max_steps and n_traj must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HitEstimate:
    """``[ci_lo, ci_hi]`` is the 95% Wilson interval, centred on the Wilson
    centre, not on p_hat.  ``counts`` holds exactly the tags hit, boundary
    and timeout; ``_diagnostics`` describes ``diagnostics``."""

    p_hat: float
    ci_lo: float
    ci_hi: float
    n: int
    counts: dict
    timeout_fraction: float
    diagnostics: dict
    params: SimParams

    def to_json(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "n": self.n,
            "counts": dict(self.counts),
            "timeout_fraction": self.timeout_fraction,
            "diagnostics": dict(self.diagnostics),
            "params": self.params.to_json(),
            "approximation_notes": list(APPROXIMATION_NOTES),
        }


@lru_cache(maxsize=None)
def median_unit_norm(d: int, alpha: float, n: int = 1 << 16) -> float:
    """Median of |X| for a standardized isotropic stable vector.

    Estimated once per (d, alpha) from a fixed internal counter stream, so the
    value is a deterministic constant of the build.  The vectors are drawn
    _MEDIAN_BLOCK at a time; only their norms are kept.
    """
    norms = np.empty(n)
    for start in range(0, n, _MEDIAN_BLOCK):
        stop = min(n, start + _MEDIAN_BLOCK)
        keys = stream_keys(0x5CA1AB1E, np.arange(start, stop))
        xi = stable_vectors(alpha, d, keys, step=0, n_steps=1)
        norms[start:stop] = np.sqrt((xi * xi).sum(axis=1))
    return _median(norms)


# np.median and np.percentile give these values, but import numpy.ma on
# first use (0.4 MiB of resident memory in every simulate process)
def _median(a: np.ndarray) -> float:
    """np.median of a float array, which it reorders: the middle value, or
    the mean of the two middle values; NaN if any value is NaN."""
    n = a.size
    h = n // 2
    kth = [h - 1, h] if n % 2 == 0 else [h]
    a.partition(kth + [-1])   # -1 brings a NaN, the largest, to the end
    if np.isnan(a[-1]):
        return float(a[-1])
    return float((a[h - 1] + a[h]) / 2.0) if n % 2 == 0 else float(a[h])


def _percentile(a: np.ndarray, q: float) -> float:
    """np.percentile(a, q) of an integer array with numpy's default linear
    method: the value at the virtual index (n - 1) * q / 100 of the sorted
    array, interpolated between its neighbours as numpy's _lerp does."""
    n = a.size
    at = (n - 1) * (q / 100)
    lo = math.floor(at)
    hi = min(lo + 1, n - 1)
    part = np.partition(a, [lo, hi])
    below, above = part[lo], part[hi]
    t = at - lo
    diff = above - below
    return float(above - diff * (1 - t)) if t >= 0.5 else float(below + diff * t)


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

def _run_batch(x0: np.ndarray, config: BubbleConfig, phi, params: SimParams,
               traj_ids: np.ndarray):
    """Run trajectories traj_ids in lockstep.  Each consumes only its own
    counter stream, so results match trajectory-at-a-time execution exactly.

    A pass advances the m running trajectories K = max(1, _BLOCK_DRAWS // m)
    steps (at most the steps left) on one block of draws, then asks the ball
    index once about every position the block moved to.  This is exact: the
    step never reads the bubbles, so a path through the block is the same
    whether or not it meets one; a trajectory's outcome is its first hit or
    boundary step in the block (a hit first at the same step), and whatever
    it did after that step is discarded, suppressed proposals included.
    Trajectories with an outcome leave the running arrays (positions,
    distances to the centre, stream keys, batch rows) after the pass; each
    carries |x - c| from its last step, so a step takes one norm.  Returns
    per trajectory (tags, steps, bubbles, finals, killed, suppressed):
    ``killed`` is the first suppressed-proposal step (``max_steps`` if none),
    ``suppressed`` the number of suppressed proposals.  x0 must lie in D
    outside every bubble; ``estimate_hitting`` checks it.  Raises
    FloatingPointError as soon as a pass draws a non-finite increment.
    """
    domain = config.domain
    d = domain.dimension
    alpha = params.alpha
    n = traj_ids.shape[0]
    c, R = domain.center, domain.radius
    eps = params.boundary_eps
    inner_radius = R - eps  # delta < eps  <=>  |x - c| > R - eps

    x = np.tile(np.asarray(x0, dtype=float), (n, 1))
    tags = np.full(n, TIMEOUT, dtype=np.int8)
    steps = np.full(n, params.max_steps, dtype=np.int64)
    bubbles = np.full(n, -1, dtype=np.int64)
    finals = x.copy()
    killed = np.full(n, params.max_steps, dtype=np.int64)
    suppressed = np.zeros(n, dtype=np.int64)

    index = config.index
    if R - float(np.sqrt(((np.asarray(x0, dtype=float) - c) ** 2).sum())) < eps:
        return (np.full(n, BOUNDARY, np.int8), np.zeros(n, np.int64), bubbles, finals,
                killed, suppressed)

    kappa = 0.25 / median_unit_norm(d, alpha)

    # state of the running trajectories only, row for row
    live = np.arange(n)
    keys = stream_keys(params.seed, traj_ids)
    dist = row_norms(x, c)
    step = 0
    while live.size and step < params.max_steps:
        m = live.size
        k = min(max(1, _BLOCK_DRAWS // m), params.max_steps - step)
        xi = stable_vectors(alpha, d, keys, step, k)
        if not np.isfinite(xi).all():
            # such a proposal would fail norm < R and pass for a suppressed one
            raise FloatingPointError(
                f"alpha={alpha}: a stable increment drawn for steps {step}..{step + k - 1} "
                "is not finite, so the estimate would be biased")
        # the block's path: positions, moves and boundary steps, (k, m) per step
        path = np.empty((k, m, d))
        moved = np.empty((k, m), dtype=bool)
        beyond = np.empty((k, m), dtype=bool)
        for s in range(k):
            delta = R - dist
            scale = delta * phi(1.0 - delta / R) * kappa
            prop = x + scale[:, None] * xi[s * m:(s + 1) * m]
            norm = row_norms(prop, c)
            np.less(norm, R, out=moved[s])
            np.greater(norm, inner_radius, out=beyond[s])
            x = np.where(moved[s][:, None], prop, x)
            dist = np.where(moved[s], norm, dist)
            path[s] = x
        del xi

        # the first event of each row: hit, or else boundary, at a moved step
        hit = np.zeros(k * m, dtype=bool)
        owner = np.full(k * m, -1, dtype=np.int64)
        rows = np.flatnonzero(moved)
        if rows.size:
            hit[rows], owner[rows] = index.contains_batch(
                np.take(path.reshape(k * m, d), rows, axis=0))
        hit, owner = hit.reshape(k, m), owner.reshape(k, m)
        event = hit | (moved & beyond)
        ended = event.any(axis=0)
        first = np.where(ended, event.argmax(axis=0), k)  # k: no event

        # suppressed proposals up to a row's event (or the block's end)
        out = ~moved & (np.arange(k)[:, None] < first)
        killed_rows = out.any(axis=0)
        ids = live[killed_rows]
        killed[ids] = np.minimum(killed[ids], step + out.argmax(axis=0)[killed_rows])
        suppressed[live] += out.sum(axis=0)

        if ended.any():
            e_cols, e_steps = np.flatnonzero(ended), first[ended]
            ids = live[ended]
            e_hit = hit[e_steps, e_cols]
            tags[ids] = np.where(e_hit, HIT, BOUNDARY)
            steps[ids] = step + e_steps
            bubbles[ids] = owner[e_steps, e_cols]
            finals[ids] = path[e_steps, e_cols]
            # compress() and take() copy rows of an (n, d) array several
            # times faster than boolean or fancy indexing does
            keep = ~ended
            live, keys, dist = live[keep], keys[keep], dist[keep]
            x = x.compress(keep, axis=0)
        step += k

    finals[live] = x
    return tags, steps, bubbles, finals, killed, suppressed


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for ``hits`` out of ``n``; the upper bound is
    1 minus the lower one for the misses, so the ends are exactly 0 and 1."""
    z = _WILSON_Z
    z2 = z * z

    def lower(k: int) -> float:
        return (k + z2 / 2.0 - z * math.sqrt(k * (n - k) / n + z2 / 4.0)) / (n + z2)

    return lower(hits), 1.0 - lower(n - hits)


def _diagnostics(config: BubbleConfig, params: SimParams, tags, steps, bubbles,
                 suppressed) -> dict:
    """Hits per shell, the suppressed share of proposals, percentiles of the
    steps per trajectory, and the number of shells whose whole delta range
    lies below boundary_eps (reachable only by a direct jump).  The shell
    entries are None for bubbles without shell labels."""
    # a trajectory that ended at step s made s + 1 proposals, a timeout max_steps
    proposals = int(steps.sum()) + int((tags != TIMEOUT).sum())
    out = {"suppressed_fraction": int(suppressed.sum()) / proposals,
           "hits_per_shell": None, "shells_below_boundary_eps": None}
    for q in (50, 90, 99):
        out[f"steps_p{q}"] = _percentile(steps, q)
    sid = config.shell_ids
    if sid is not None and config.n:
        n_shells = int(sid.max()) + 1
        out["hits_per_shell"] = np.bincount(sid[bubbles[tags == HIT]], minlength=n_shells).tolist()
        top = np.full(n_shells, -np.inf)  # largest delta over each shell
        np.maximum.at(top, sid, config.deltas + config.radii)
        out["shells_below_boundary_eps"] = int((top < params.boundary_eps).sum())
    return out


def _worker_count() -> int:
    """The CPUs this process may run on, or 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(x0, config, phi, params) -> list:
    """``_run_batch`` over all trajectories, split into one contiguous block
    per CPU.  Block 0 runs here; each other block runs in a forked worker,
    which inherits the configuration and its index, pickles its six arrays
    back over a pipe and ends with ``os._exit``, so it neither flushes
    inherited buffers nor runs exit hooks.  A worker's exception is raised
    here as a RuntimeError with its message; on any exception the workers
    still running are killed, and every worker is reaped.  As with any fork,
    no other thread of the caller may hold a lock that a worker then needs.
    """
    n = params.n_traj
    w = min(n, _worker_count())
    bounds = [n * i // w for i in range(w + 1)]
    workers = []  # (pid, read end of its pipe, lo, hi) of the workers not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = (True, _run_batch(x0, config, phi, params,
                                                np.arange(lo, hi, dtype=np.int64)))
                    except BaseException as exc:  # reported to the parent, which raises it
                        out = (False, f"{type(exc).__name__}: {exc}")
                    with open(wr, "wb") as f:
                        pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            workers.append((pid, open(r, "rb"), lo, hi))
        blocks = [_run_batch(x0, config, phi, params, np.arange(bounds[1], dtype=np.int64))]
        while workers:
            pid, pipe, lo, hi = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            where = f"simulation worker for trajectories {lo}..{hi - 1}"
            if code != 0:
                raise RuntimeError(f"{where} exited with status {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise RuntimeError(f"{where} failed: {value}")
            blocks.append(value)
    finally:
        for pid, pipe, _, _ in workers:  # left only by an exception
            import signal  # here, not at the top: importing it adds ≈2 ms to every start

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [np.concatenate(col) for col in zip(*blocks)]


def estimate_hitting(x0, config: BubbleConfig, phi, params: SimParams):
    """Estimate P(hit the bubble union before the lifetime proxy); ``phi`` is
    the radial profile that sets the step.  Returns the ``HitEstimate`` and
    the per-trajectory outcomes (tags, steps, bubbles, finals), in
    trajectory id order.

    Runs ``params.n_traj`` trajectories on independent counter streams,
    split into one contiguous block of trajectory ids per CPU that this
    process may use: block 0 runs in this process, each other block in a
    forked worker, each block as one lockstep batch.  A trajectory consumes
    only its own counter stream, so on a given host it is a function of its
    id alone, and the estimate and outcomes are identical for any number of
    workers.
    x0 is checked, the ball index built and the stable-norm constant drawn
    before forking, so workers inherit them.  Timeouts are reported
    separately and never counted as hits.
    """
    x0 = np.asarray(x0, dtype=float)
    dom = config.domain
    if config.index.contains(x0) is not None:
        raise ValueError("x0 lies inside a bubble")
    if dom.radius - float(np.sqrt(((x0 - dom.center) ** 2).sum())) <= 0:
        raise ValueError("x0 must lie inside the domain")
    median_unit_norm(dom.dimension, params.alpha)
    n = params.n_traj
    tags, steps, bubbles, finals, _, suppressed = _run_forked(x0, config, phi, params)

    hits = int((tags == HIT).sum())
    boundary = int((tags == BOUNDARY).sum())
    timeout = int((tags == TIMEOUT).sum())
    ci_lo, ci_hi = _wilson_interval(hits, n)
    estimate = HitEstimate(
        p_hat=hits / n,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        n=n,
        counts={"hit": hits, "boundary": boundary, "timeout": timeout},
        timeout_fraction=timeout / n,
        diagnostics=_diagnostics(config, params, tags, steps, bubbles, suppressed),
        params=params,
    )
    return estimate, (tags, steps, bubbles, finals)
