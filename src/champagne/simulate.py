"""Monte-Carlo approximation of the censored stable process and estimation of
the bubble-hitting probability before the lifetime.

The process is approximated by an Euler jump-suppression chain: at time scale
h, propose an isotropic stable increment and suppress it if it would exit the
domain.  This is the direct discrete analog of censoring; its convergence to
the censored process is a documented modeling assumption, not a theorem, and
h-refinement sweeps are the supporting evidence.  The lifetime is detected by
the proxy delta_D < boundary_eps, which biases the hitting probability
downward (trajectories may be stopped early); runs report this.

All randomness is counter-based per trajectory, so estimates are bitwise
independent of batching, and nested configurations run with the same seed are
coupled pathwise.  Trajectories run in lockstep, and each step touches only
the trajectories still running: their positions, distances to the centre and
stream keys are compacted as trajectories end, and each trajectory carries
its distance to the centre from one step to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bubbles import BubbleConfig
from .geometry import row_norms
from .rng import stable_vectors, stream_keys
from .spatial import BallIndex

__all__ = [
    "SimParams",
    "TrajectoryOutcome",
    "HitEstimate",
    "run_trajectory",
    "estimate_hitting",
    "median_unit_norm",
]

HIT, BOUNDARY, TIMEOUT = 0, 1, 2
_TAGS = {HIT: "hit", BOUNDARY: "boundary", TIMEOUT: "timeout"}
_WILSON_Z = 1.959963984540054  # 95%


@dataclass(frozen=True)
class SimParams:
    """Simulation parameters.

    ``jump_scale`` overrides the h-derived spatial scale h**(1/alpha) for
    non-adaptive runs; it exists so exact scaling couplings can be expressed
    without round-tripping through a fractional power.
    """

    alpha: float
    h: float = 1e-4
    boundary_eps: float = 1e-3
    max_steps: int = 20_000
    n_traj: int = 1000
    seed: int = 0
    adaptive: bool = True
    jump_scale: float | None = None

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
        return {
            "alpha": self.alpha,
            "h": self.h,
            "boundary_eps": self.boundary_eps,
            "max_steps": self.max_steps,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "adaptive": self.adaptive,
            "jump_scale": self.jump_scale,
        }


@dataclass(frozen=True)
class TrajectoryOutcome:
    tag: str                  # "hit" | "boundary" | "timeout"
    step: int                 # jump index at which the outcome was detected
    final_point: np.ndarray
    bubble: int | None = None


@dataclass(frozen=True)
class HitEstimate:
    p_hat: float
    ci_lo: float              # 95% Wilson interval [ci_lo, ci_hi]; it is
    ci_hi: float              # centred on the Wilson centre, not on p_hat
    n: int
    counts: dict
    timeout_fraction: float
    params: SimParams

    def to_json(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "n": self.n,
            "counts": dict(self.counts),
            "timeout_fraction": self.timeout_fraction,
            "params": self.params.to_json(),
            "approximation_notes": [
                "Euler jump-suppression chain; convergence to the censored process is assumed",
                "lifetime proxy delta_D < boundary_eps biases p_hat downward",
            ],
        }


@lru_cache(maxsize=None)
def median_unit_norm(d: int, alpha: float, n: int = 1 << 16) -> float:
    """Median of |X| for a standardized isotropic stable vector.

    Estimated once per (d, alpha) from a fixed internal counter stream, so the
    value is a deterministic constant of the build.
    """
    keys = stream_keys(0x5CA1AB1E, np.arange(n))
    xi = stable_vectors(alpha, d, keys, step=0)
    return float(np.median(np.sqrt((xi * xi).sum(axis=1))))


# ---------------------------------------------------------------------------
# adaptive scale table
# ---------------------------------------------------------------------------

class _AdaptiveTable:
    """Smallest bubble radius by power-of-two band of center depth.

    Lookup by the exponent of delta(x); the window spans exponents +-2, i.e.
    bubbles whose depth is within a factor ~8 of the query point's.  Built
    from exponents only, so the table commutes exactly with power-of-two
    dilations of the configuration.
    """

    def __init__(self, config: BubbleConfig):
        if config.n == 0:
            self._lo = 0
            self._win = np.asarray([math.inf])
            return
        _, exps = np.frexp(config.deltas)
        e_min, e_max = int(exps.min()), int(exps.max())
        self._lo = e_min - 5
        size = e_max + 5 - self._lo + 1
        bins = np.full(size, math.inf)
        for e in range(e_min, e_max + 1):
            mask = exps == e
            if mask.any():
                bins[e - self._lo] = float(config.radii[mask].min())
        win = np.full(size, math.inf)
        for i in range(size):
            win[i] = bins[max(0, i - 2) : i + 3].min()
        self._win = win

    def band_min(self, deltas: np.ndarray) -> np.ndarray:
        _, e = np.frexp(deltas)
        idx = np.clip(e.astype(np.int64) - self._lo, 0, self._win.shape[0] - 1)
        return self._win[idx]


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

def _run_batch(x0: np.ndarray, config: BubbleConfig, params: SimParams, traj_ids: np.ndarray):
    """Run trajectories traj_ids in lockstep.  Each consumes only its own
    counter stream, so results match trajectory-at-a-time execution exactly.

    Only running trajectories are stepped: their positions, distances to the
    centre, stream keys and batch rows are kept in arrays that shrink as
    trajectories end, and each carries |x - c| from its last step, so a step
    takes one norm (of the proposal).  Finished trajectories are written to
    the outcome arrays by row.  Returns (tags, steps, bubbles, finals).
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

    index = BallIndex(config.centers, config.radii, origin=c) if config.n else None
    if index is not None and index.contains(np.asarray(x0, dtype=float)) is not None:
        raise ValueError("x0 lies inside a bubble")
    delta0 = R - float(np.sqrt(((np.asarray(x0, dtype=float) - c) ** 2).sum()))
    if delta0 <= 0:
        raise ValueError("x0 must lie inside the domain")
    if delta0 < eps:
        return np.full(n, BOUNDARY, np.int8), np.zeros(n, np.int64), bubbles, finals

    adapt = _AdaptiveTable(config) if params.adaptive else None
    scale_coeff = 0.25 / median_unit_norm(d, alpha)
    fixed_scale = (
        params.jump_scale if params.jump_scale is not None else params.h ** (1.0 / alpha)
    )

    # state of the running trajectories only, row for row
    live = np.arange(n)
    keys = stream_keys(params.seed, traj_ids)
    dist = row_norms(x, c)
    for step in range(params.max_steps):
        if live.size == 0:
            break
        xi = stable_vectors(alpha, d, keys, step)
        if adapt is not None:
            delta = R - dist
            local = np.maximum(np.minimum(delta, adapt.band_min(delta)), eps)
            scale = local * scale_coeff
            prop = x + scale[:, None] * xi
        else:
            prop = x + fixed_scale * xi
        norm = row_norms(prop, c)
        moved = norm < R
        x = np.where(moved[:, None], prop, x)
        dist = np.where(moved, norm, dist)

        done = np.zeros(live.size, dtype=bool)
        if index is not None and moved.any():
            rows = np.flatnonzero(moved)
            got, owner = index.contains_batch(np.take(x, rows, axis=0))
            if got.any():
                hit_rows = rows[got]
                ids = live[hit_rows]
                tags[ids] = HIT
                steps[ids] = step
                bubbles[ids] = owner[got]
                finals[ids] = x[hit_rows]
                done[hit_rows] = True
        reached = moved & (norm > inner_radius) & ~done
        if reached.any():
            ids = live[reached]
            tags[ids] = BOUNDARY
            steps[ids] = step
            finals[ids] = x[reached]
            done |= reached
        if done.any():
            # compress() and take() copy rows of an (n, d) array several
            # times faster than boolean or fancy indexing does
            keep = ~done
            live, keys, dist = live[keep], keys[keep], dist[keep]
            x = x.compress(keep, axis=0)

    finals[live] = x
    return tags, steps, bubbles, finals


def run_trajectory(x0, config: BubbleConfig, params: SimParams, traj: int = 0) -> TrajectoryOutcome:
    """Single trajectory; outcome is identical inside any batch because the
    stream is keyed by (seed, traj)."""
    tags, steps, bubbles, finals = _run_batch(
        np.asarray(x0, dtype=float), config, params, np.asarray([traj], dtype=np.int64)
    )
    return TrajectoryOutcome(
        tag=_TAGS[int(tags[0])],
        step=int(steps[0]),
        final_point=finals[0],
        bubble=int(bubbles[0]) if tags[0] == HIT else None,
    )


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for ``hits`` out of ``n``; the upper bound is
    1 minus the lower one for the misses, so the ends are exactly 0 and 1."""
    z = _WILSON_Z
    z2 = z * z

    def lower(k: int) -> float:
        return (k + z2 / 2.0 - z * math.sqrt(k * (n - k) / n + z2 / 4.0)) / (n + z2)

    return lower(hits), 1.0 - lower(n - hits)


def estimate_hitting(
    x0,
    config: BubbleConfig,
    params: SimParams,
    batch: int = 4096,
    return_outcomes: bool = False,
):
    """Estimate P(hit the bubble union before the lifetime proxy).

    Runs ``params.n_traj`` trajectories on independent counter streams, in
    batches of ``batch``; the estimate is identical for any batch size.
    Timeouts are reported separately and never counted as hits.
    """
    x0 = np.asarray(x0, dtype=float)
    n = params.n_traj
    results = [
        _run_batch(x0, config, params, np.arange(i, min(i + batch, n), dtype=np.int64))
        for i in range(0, n, batch)
    ]

    tags = np.concatenate([r[0] for r in results])
    steps = np.concatenate([r[1] for r in results])
    bubbles = np.concatenate([r[2] for r in results])
    finals = np.concatenate([r[3] for r in results])

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
        params=params,
    )
    if return_outcomes:
        return estimate, (tags, steps, bubbles, finals)
    return estimate
