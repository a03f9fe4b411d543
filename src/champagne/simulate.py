"""Monte-Carlo approximation of the censored stable process and estimation of
the bubble-hitting probability before the lifetime.

An Euler jump-suppression chain proposes x + s(x)*xi, with xi a standardized
isotropic alpha-stable vector, and suppresses a proposal that leaves
D = B(c, R): the discrete analog of censoring.  The step reads the shell
bands of the family:

    s(x) = kappa_b * min(delta, max(delta*phi(1 - delta/R), g(x))),

with delta = R - |x - c|, kappa_b = 0.125/median|xi|, and g(x) the radial
gap from |x - c| to the nearest band

    R*[t_i - u_i*phi(t_i), t_i + u_i*phi(t_i)],  u_i = 1 - t_i,

and g = 0 inside a band.  The t_i are the shell radii of the family's
closed form in (a, phi) (``bubbles.shell_radii``), and every bubble of
shell i lies in band i.  The bands are those of every shell whose band
starts below R - boundary_eps, generated or not, and at most _MAX_BANDS of
them: past that many the last one reaches R.  Inside a band the step is
the local bubble scale kappa_b*delta*phi; between bands it grows with the
gap to the nearest band, as walk-on-spheres steps to the nearest obstacle
(Muller, Ann. Math. Stat. 27, 1956), and never past kappa_b*delta.  What
this saves depends on the share of the radial range between the bands,
1 - phi/a for a constant phi < a and none for phi >= a; where the bands
cover the range, the step is half the bubble scale kappa*delta*phi and a
path takes up to twice as many steps.  The median is exact: it is the
radius that the table of |xi|'s law (``rng.radial_law``) gives at
u = 1/2, to within 1e-8 in probability.  A jump s(x)*xi is what the
stable process does in time s(x)**alpha, so the chain is an Euler scheme
for the censored process time-changed by dt = s(X)**alpha.  A time change
keeps the paths and hence every hitting probability; the one error is the
chain's discretisation bias, which the tests measure against
walk-on-spheres for the process killed on leaving D (Bogdan, Burdzy &
Chen, PTRF 127, 2003), on a whole family and on single shells.  kappa_b
is half of kappa = 0.25/median|xi|, because at kappa the band step read a
whole family's killed hit probability low by more than its noise.  The
lifetime proxy delta_D < boundary_eps biases p_hat downward; a running
trajectory has delta >= boundary_eps, so its step is never 0.

Randomness is counter-based per trajectory, so estimates are bitwise
independent of batching.  A trajectory's stream gives d slots a step, d
uniforms: one for |xi|, read from the table by interpolation, and d - 1 for
its direction.  Bitwise on one host: the draws, and the table and kappa_b,
also depend on which of numpy's SIMD loops the CPU selects (see ``rng``).
The step reads (a, phi) and never the bubbles, so nested, thinned and
single-shell configurations run with the same seed and bands share each
path until the larger one is hit; delta/R is scale-free and the bands
scale with R, so a power-of-two dilation of the run dilates every
trajectory exactly.  Trajectories run in lockstep, in passes of a block of
steps over those still running: one draw of random vectors and one
point query per pass, not per step.  A pass over m trajectories takes
_BLOCK_DRAWS // m steps, at least 1 and at most _PASS_STEPS, so the
passes past the longest trajectory's end draw fewer than _PASS_STEPS
steps.  Blindness to the bubbles is also what makes this exact: a block's
path is computed before the query, each trajectory's outcome is its first
hit or boundary step, and its work past that step is discarded.

The counter streams also make every trajectory a function of its own id
alone (and of the host's numpy loops), so the ids can be split between
processes without changing a bit.  ``_run_forked`` splits them into one
contiguous block per CPU this process may use, runs block 0 itself and
each other block in a worker forked after the configuration's point
lookup (``BubbleConfig.index``: the shell lattice's in d=2, a ball index
otherwise) and the table of |xi|'s law are built, and concatenates the
blocks in id order.  Workers are forked, not threads, because two threads
sharing the interpreter lock ran no faster than one; and forked, not
spawned by ``multiprocessing``, so that they inherit the configuration, its
index and the table instead of rebuilding them.

Beside its outcome arrays, a pass holds the temporaries of at most
_BLOCK_DRAWS rows: the block's draws, path and point query (which the index
splits into blocks of spatial._QUERY_BLOCK).  The diagnostics take the
bubbles' shell labels _ROW_BLOCK at a time (``bubbles``).  The table holds
about 1,500 cubic pieces (50 KiB) per (d, alpha).
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import asdict, dataclass

import numpy as np

from .bubbles import BubbleConfig, _row_blocks, shell_radii
from .geometry import row_norms
from .rng import radial_law, stable_vectors, stream_keys

__all__ = [
    "SimParams",
    "HitEstimate",
    "estimate_hitting",
]

HIT, BOUNDARY, TIMEOUT = 0, 1, 2
_TAGS = {HIT: "hit", BOUNDARY: "boundary", TIMEOUT: "timeout"}
_WILSON_Z = 1.959963984540054  # 95%
# kappa_b = _STEP_FRACTION / median|xi|
_STEP_FRACTION = 0.125
# draws per pass of the step loop: m running trajectories take
# max(1, _BLOCK_DRAWS // m) steps per pass, and at most _PASS_STEPS
_BLOCK_DRAWS = 1 << 13
_PASS_STEPS = 256
# the most shell bands the step lists; deeper ones join the last (_band_table)
_MAX_BANDS = 1 << 12
# in every estimate.json, and with a "simulator: " prefix in every manifest
APPROXIMATION_NOTES = [
    "Euler jump-suppression chain with step kappa_b*min(delta, max(delta*phi(1 - delta/R), "
    "g)), g the radial gap to the nearest shell band of the family's closed form, "
    "kappa_b = 0.125/median|xi|: a time change of the censored process whose "
    "discretisation bias is not corrected",
    "lifetime proxy delta_D < boundary_eps biases p_hat downward",
    "stable increments: |xi| is drawn by inverting a table of its distribution "
    "function F, with |F(|xi|) - u| < 1e-8 for the uniform u; kappa_b's median "
    "is the table's",
]


@dataclass(frozen=True)
class SimParams:
    """Simulation parameters."""

    alpha: float
    boundary_eps: float = 1e-3
    max_steps: int = 20_000
    n_traj: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")
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


# np.percentile gives this value, but imports numpy.ma on first use (0.4 MiB
# of resident memory in every simulate process)
def _percentile(a: np.ndarray, q: float) -> float:
    """np.percentile(a, q) of an integer or finite float array with numpy's
    default linear method: the value at the virtual index (n - 1) * q / 100
    of the sorted array, interpolated between its neighbours as numpy's
    _lerp does."""
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

def _band_table(R: float, eps: float, phi, a: float):
    """The lookup of the step's gap g for the shells of the closed form in
    (a, phi) whose band R*[t_i - u_i*phi(t_i), t_i + u_i*phi(t_i)], with
    u_i = 1 - t_i, starts below R - eps, generated or not: the tuple
    ``(edges, below, above)``.  ``edges`` holds the ends of the bands' union
    in increasing order, start, end, start, ...  For rho = |x - c| and
    j = edges.searchsorted(rho, "right"), min(rho - below[j], above[j] - rho)
    is g: the gap to the nearest band outside the bands, and -inf inside
    one, where max(delta*phi, g) reads delta*phi, as it does for g = 0.
    As a -> 0 the shells crowd, log(eps/R)/log q of them for
    q = (1 - a)/(1 + a), so at most _MAX_BANDS are listed: when more start
    below R - eps, band _MAX_BANDS is widened up to R.  That only shrinks g,
    to -inf past the band's start, where the step reads delta*phi: smaller
    than the full rule's step, never larger.  Each end is computed at R = 1
    and then scaled by R, so a power-of-two dilation scales every entry
    exactly."""
    log_q = math.log((1.0 - a) / (1.0 + a))
    # band i starts above R*(1 - q**i), so none past R*q**i <= eps starts below
    # R - eps; where q rounds to 1 (a = 1e-17) no shell is deeper than the first
    count = (_MAX_BANDS + 1 if log_q == 0.0
             else max(1, math.ceil(math.log(eps / R) / log_q) + 1))
    t = shell_radii(a, min(count, _MAX_BANDS + 1))
    r = (1.0 - t) * phi(t)
    lo, hi = t - r, t + r
    # lo increases with i (phi decreases), so the kept bands are the first ones
    keep = lo * R < R - eps
    lo, hi = lo[keep], hi[keep]
    if lo.size > _MAX_BANDS:
        # the last listed band stands for itself and every deeper one
        lo, hi = lo[:_MAX_BANDS], hi[:_MAX_BANDS]
        hi[-1] = 1.0
    lo, hi = lo * R, hi * R
    edges = np.empty(0)
    if lo.size:
        # overlapping bands merge into one interval
        top = np.maximum.accumulate(hi)
        first = np.concatenate([[True], lo[1:] > top[:-1]])
        last = np.concatenate([first[1:], [True]])
        edges = np.column_stack([lo[first], top[last]]).ravel()
    below = np.full(edges.size + 1, np.inf)
    above = np.full(edges.size + 1, -np.inf)
    below[0::2] = np.concatenate([[-np.inf], edges[1::2]])
    above[0::2] = np.concatenate([edges[0::2], [np.inf]])
    return edges, below, above


def _run_batch(x0: np.ndarray, config: BubbleConfig, phi, a: float, params: SimParams,
               traj_ids: np.ndarray):
    """Run trajectories traj_ids in lockstep.  Each consumes only its own
    counter stream, so results match trajectory-at-a-time execution exactly.

    The step is kappa_b*min(delta, max(delta*phi(1 - delta/R), g)), with g
    the gap to the shell bands of (a, phi) (``_band_table``).  A pass
    advances the m running trajectories K = max(1, _BLOCK_DRAWS // m) steps,
    at most _PASS_STEPS and at most the steps left, on one block of draws,
    then asks the configuration's index once about every position the block
    moved to.  This is exact: the step never reads the bubbles, so a path
    through the block is the same whether or not it meets one; a
    trajectory's outcome is its first hit or boundary step in the block (a
    hit first at the same step), and whatever it did after that step is
    discarded, suppressed proposals included.  The cap bounds that discarded work: a pass starts
    only while some trajectory runs, so the last one ends fewer than
    _PASS_STEPS steps after the longest trajectory.  Trajectories with an
    outcome leave the running arrays (positions, distances to the centre,
    stream keys, batch rows) after the pass; each carries |x - c| from its
    last step, so a step takes one norm.  Returns per trajectory (tags,
    steps, bubbles, finals, killed, suppressed): ``killed`` is the first
    suppressed-proposal step (``max_steps`` if none), ``suppressed`` the
    number of suppressed proposals.  x0 must lie in D outside every bubble;
    ``estimate_hitting`` checks it.  Raises FloatingPointError as soon as a
    pass draws a non-finite increment.
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
    if R - float(row_norms(np.asarray(x0, dtype=float)[None, :], c)[0]) < eps:
        return (np.full(n, BOUNDARY, np.int8), np.zeros(n, np.int64), bubbles, finals,
                killed, suppressed)

    kappa_b = _STEP_FRACTION / radial_law(d, alpha).median
    edges, below, above = _band_table(R, eps, phi, a)

    # state of the running trajectories only, row for row
    live = np.arange(n)
    keys = stream_keys(params.seed, traj_ids)
    dist = row_norms(x, c)
    step = 0
    while live.size and step < params.max_steps:
        m = live.size
        k = min(max(1, _BLOCK_DRAWS // m), _PASS_STEPS, params.max_steps - step)
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
            scale = delta * phi(1.0 - delta / R)
            j = edges.searchsorted(dist, side="right")
            gap = dist - below[j]
            np.minimum(gap, np.subtract(above[j], dist), out=gap)
            np.maximum(scale, gap, out=scale)
            np.minimum(scale, delta, out=scale)
            scale *= kappa_b
            # the proposal, written over the step's draws
            prop = xi[s * m:(s + 1) * m]
            prop *= scale[:, None]
            prop += x
            norm = row_norms(prop, c)
            np.less(norm, R, out=moved[s])
            np.greater(norm, inner_radius, out=beyond[s])
            path[s] = x
            np.copyto(path[s], prop, where=moved[s][:, None])
            np.copyto(dist, norm, where=moved[s])
            x = path[s]
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


def _diagnostics(config: BubbleConfig, params: SimParams, tags, steps, bubbles, finals,
                 suppressed) -> dict:
    """Hits per shell, the suppressed share of proposals, percentiles of the
    steps per trajectory, the least and the median delta of the timed-out
    trajectories' final positions (None without timeouts), and the shells
    whose whole delta range lies below boundary_eps (reachable only by a
    direct jump): their number and, under ``shells_below_boundary_eps_list``,
    their numbers i = 1, 2, ... of the shell radii t_i.  The shell entries
    are None for bubbles without shell labels."""
    # a trajectory that ended at step s made s + 1 proposals, a timeout max_steps
    timed_out = tags == TIMEOUT
    proposals = int(steps.sum()) + int((~timed_out).sum())
    out = {"suppressed_fraction": int(suppressed.sum()) / proposals,
           "hits_per_shell": None, "shells_below_boundary_eps": None,
           "shells_below_boundary_eps_list": None,
           "timeout_delta_min": None, "timeout_delta_median": None}
    for q in (50, 90, 99):
        out[f"steps_p{q}"] = _percentile(steps, q)
    if timed_out.any():
        dom = config.domain
        depth = dom.radius - row_norms(finals[timed_out], dom.center)
        out["timeout_delta_min"] = float(depth.min())
        out["timeout_delta_median"] = _percentile(depth, 50)
    sid = config.shell_ids
    if sid is not None and config.n:
        n_shells = int(sid.max()) + 1
        out["hits_per_shell"] = np.bincount(sid[bubbles[tags == HIT]], minlength=n_shells).tolist()
        top = np.full(n_shells, -np.inf)  # largest delta over each shell
        for b in _row_blocks(config.n):
            np.maximum.at(top, sid[b], config.deltas[b] + config.radii[b])
        below = np.flatnonzero(top < params.boundary_eps)
        out["shells_below_boundary_eps"] = int(below.size)
        out["shells_below_boundary_eps_list"] = (below + 1).tolist()
    return out


def _worker_count() -> int:
    """The CPUs this process may run on, or 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(x0, config, phi, a, params) -> list:
    """``_run_batch`` over all trajectories in one block of ids per CPU
    (``_worker_count``), block 0 here and each other block in a forked
    worker, concatenated in id order.  A worker pickles its outcomes back
    over a pipe and ends with ``os._exit``, so it neither flushes inherited
    buffers nor runs exit hooks.  A worker's exception is raised here as a
    RuntimeError that names the worker and carries its message; on any
    exception the workers still running are killed, and every worker is
    reaped.  No other thread of the caller may hold a lock that a worker
    then needs.  With one CPU nothing is forked."""
    n = params.n_traj
    w = min(n, _worker_count())
    bounds = [n * i // w for i in range(w + 1)]

    def block(i):
        return _run_batch(x0, config, phi, a, params,
                          np.arange(bounds[i], bounds[i + 1], dtype=np.int64))

    workers = []  # (pid, read end of its pipe, name) of the workers not yet reaped
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = (True, block(i))
                    except BaseException as exc:  # reported to the parent, which raises it
                        out = (False, f"{type(exc).__name__}: {exc}")
                    with open(wr, "wb") as f:
                        pickle.dump(out, f, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            name = f"simulation worker for trajectories {bounds[i]}..{bounds[i + 1] - 1}"
            workers.append((pid, open(r, "rb"), name))
        blocks = [block(0)]
        while workers:
            pid, pipe, name = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code != 0:
                raise RuntimeError(f"{name} exited with status {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise RuntimeError(f"{name} failed: {value}")
            blocks.append(value)
    finally:
        for pid, pipe, _ in workers:  # left only by an exception
            import signal  # here, not at the top: importing it adds ≈2 ms to every start

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [np.concatenate(col) for col in zip(*blocks)]


def estimate_hitting(x0, config: BubbleConfig, phi, a: float, params: SimParams):
    """Estimate P(hit the bubble union before the lifetime proxy); the radial
    profile ``phi`` and the shell parameter ``a`` of the family's closed form
    set the step, through its shell bands.  Returns the ``HitEstimate`` and
    the per-trajectory outcomes (tags, steps, bubbles, finals), in
    trajectory id order.  Raises ValueError if ``config.meta`` records a
    profile or an ``a`` other than these; a family without them (a subset,
    a dilation, a single shell) runs on the bands it is given.

    Runs ``params.n_traj`` trajectories on independent counter streams,
    split between processes by ``_run_forked``; the estimate and outcomes
    are identical for any number of workers.  x0 is checked, and
    ``config.index`` and the table of |xi|'s law built, before forking, so
    workers inherit them.  Timeouts are reported separately and never
    counted as hits.
    """
    for key, given in (("phi", phi), ("a", a)):
        if key in config.meta and config.meta[key] != given:
            raise ValueError(f"the bands' {key}={given!r} is not the family's "
                             f"{key}={config.meta[key]!r}")
    x0 = np.asarray(x0, dtype=float)
    dom = config.domain
    if config.index.contains_batch(x0[None, :])[0][0]:
        raise ValueError("x0 lies inside a bubble")
    if dom.radius - float(row_norms(x0[None, :], dom.center)[0]) <= 0:
        raise ValueError("x0 must lie inside the domain")
    radial_law(dom.dimension, params.alpha)
    n = params.n_traj
    tags, steps, bubbles, finals, _, suppressed = _run_forked(x0, config, phi, a, params)

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
        diagnostics=_diagnostics(config, params, tags, steps, bubbles, finals, suppressed),
        params=params,
    )
    return estimate, (tags, steps, bubbles, finals)
