"""Numerical evaluation and divergence classification of avoidability criteria.

Divergence is never claimed from truncated numerics: a Divergent/Convergent
verdict requires the analytic tail reduction available for the closed-form
profile/weight enumeration, otherwise the verdict is Inconclusive and carries
partial sums as diagnostics.  "sigma-a.e. boundary point" is operationalized
as every point of a deterministic boundary grid plus the rotation-symmetry
property of shell configurations; reports state this proxy.

The Whitney-based sums (Aikawa, Wiener, quasi-additivity) all run over the
configuration's cube-bubble incidence (:class:`whitney.CubeIncidence`), whose
(bubble, cube) pairs come one level at a time, sorted by bubble and then by
cube.  Bubbles with no pair lie below the coverage collar.
:func:`whitney_sums` makes one pass over the levels for every boundary point
of a grid at once: each level's z-independent factors (each cube's
Cap(A ∩ Q) bounds and capped Green value) are computed once and used for
every point, and the level is dropped before the next is built.  Every
quantity is a (lower, upper) pair of floats or of arrays, checked by
:func:`kernels.check_bounds`.  Sums add left to right in a fixed order, so
totals match a plain loop over the bubbles and cubes, one scalar (lower,
upper) pair at a time, bit for bit.  The Aikawa sum adds its cubes in
ascending cube number, which is level order, so each point carries a
running total from level to level.  The Wiener and quasi-additivity sums
add their cubes in order of first appearance among the pairs: by the
lowest bubble id among a cube's pairs (in the shell, for Wiener), then by
cube number.  They keep one term per cube with that key and add the terms
after the last level.

Memory.  Beyond the level in hand, the pass keeps a running total per
point for Aikawa, one term per cube for the quasi-additivity numerator,
one term per (shell, cube) near each point for Wiener, and one count per
bubble for c2.  Every pass over bubbles, pairs or cubes takes _ROW_BLOCK
rows at a time, which bounds its temporaries: the Wiener shells and the
quasi-additivity denominator over the bubbles, the pair and cube factors
of a level, and the boundary series totals of
:func:`classify_avoidability`.  ``kernels._pow_each`` raises
``kernels._POW_BLOCK`` values at a time.  ``whitney`` bounds the building
of a level (_BALL_BLOCK, _CANDIDATE_CHUNK).  No block size changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bubbles import (
    BubbleConfig,
    ConstantProfile,
    LogProfile,
    LogWeight,
    OneWeight,
    PowerProfile,
    PowerWeight,
    RadialProfile,
    WeightFunction,
    _fibonacci_sphere,
    separation_infimum,
)
from .geometry import BallDomain
from .kernels import (
    Constants,
    _pow_each,
    capacity_ball_bounds,
    capped_green_bounds,
    check_bounds,
    small_radius_threshold,
)
# intersecting_cubes is the per-ball reference for the incidence; it stays
# importable from here
from .whitney import CubeIncidence, LevelPairs, intersecting_cubes  # noqa: F401

__all__ = [
    "uniform_boundary_grid",
    "Verdict",
    "DivergenceVerdict",
    "SeriesEvaluation",
    "avoidability_series",
    "classify_shell_series",
    "AikawaTrace",
    "aikawa_sum",
    "WienerTrace",
    "wiener_dyadic_sum",
    "quasi_additivity_interval",
    "WhitneySums",
    "whitney_sums",
    "AvoidabilityReport",
    "classify_avoidability",
]

# rows of bubbles, pairs or cubes that a pass takes at a time
_ROW_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# boundary grids
# ---------------------------------------------------------------------------

def uniform_boundary_grid(domain: BallDomain, n: int) -> np.ndarray:
    """Grid points (n, d) on the boundary sphere: uniform angles (d=2) or a
    Fibonacci lattice (d=3)."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    d = domain.dimension
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return domain.center + domain.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if d == 3:
        return domain.center + domain.radius * _fibonacci_sphere(n)
    raise ValueError("boundary grids support d in {2, 3}")


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    DIVERGENT = "divergent"
    CONVERGENT = "convergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DivergenceVerdict:
    tag: Verdict
    evidence: dict = field(default_factory=dict)
    tail_model: str = ""

    def to_json(self) -> dict:
        def clean(v):
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (np.floating, float)):
                return float(v)
            if isinstance(v, (np.integer, int)):
                return int(v)
            return v

        return {"tag": self.tag.value, "tail_model": self.tail_model, "evidence": clean(self.evidence)}


# ---------------------------------------------------------------------------
# boundary series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesEvaluation:
    terms: np.ndarray
    partial_sums: np.ndarray

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if self.partial_sums.size else 0.0


def _series_terms(config: BubbleConfig, z: np.ndarray, alpha: float,
                  rows: slice = slice(None)) -> np.ndarray:
    d = config.dimension
    dist = np.sqrt(((config.centers[rows] - z) ** 2).sum(axis=1))
    if dist.size and float(dist.min()) == 0.0:
        raise ValueError("a bubble center coincides with the boundary point z")
    return (
        config.deltas[rows] ** (2.0 * alpha - 2.0)
        * config.radii[rows] ** (d - alpha)
        / dist ** (d + alpha - 2.0)
    )


def _series_total(config: BubbleConfig, z: np.ndarray, alpha: float) -> float:
    """``avoidability_series(config, z, alpha).total``, _ROW_BLOCK bubbles
    at a time."""
    total = 0.0
    for b in _blocks(config.n):
        total = _running_total(total, _series_terms(config, z, alpha, b))
    return total


def avoidability_series(config: BubbleConfig, z, alpha: float) -> SeriesEvaluation:
    """Per-bubble terms delta^(2a-2) * r^(d-a) / |x-z|^(d+a-2) in config
    order, with monotone partial sums."""
    z = np.asarray(z, dtype=float)
    if config.n == 0:
        return SeriesEvaluation(np.empty(0), np.empty(0))
    terms = _series_terms(config, z, alpha)
    return SeriesEvaluation(terms, np.cumsum(terms))


# ---------------------------------------------------------------------------
# analytic tail classification
# ---------------------------------------------------------------------------

def _tail_exponents(phi: RadialProfile, weight: WeightFunction, d: int, alpha: float):
    """Exponents of the tail integrand in the variable u = -log(1-t):

    phi(t)^(d-a) * M(t) = const * exp(rate*u) * (1+u)^log_power.
    """
    if isinstance(phi, ConstantProfile):
        rate_p, logpow_p, const = 0.0, 0.0, phi.c ** (d - alpha)
    elif isinstance(phi, PowerProfile):
        rate_p, logpow_p, const = -phi.beta * (d - alpha), 0.0, 1.0
    elif isinstance(phi, LogProfile):
        rate_p, logpow_p, const = 0.0, -phi.p * (d - alpha), 1.0
    else:
        return None
    if isinstance(weight, OneWeight):
        rate_w, logpow_w = 0.0, 0.0
    elif isinstance(weight, PowerWeight):
        rate_w, logpow_w = weight.gamma, 0.0
    elif isinstance(weight, LogWeight):
        rate_w, logpow_w = 0.0, weight.p
    else:
        return None
    return rate_p + rate_w, logpow_p + logpow_w, const


def _classify_exponents(rate: float, log_power: float) -> Verdict:
    # integral of exp(rate*u) * (1+u)^log_power du over an infinite tail
    if rate > 0.0:
        return Verdict.DIVERGENT
    if rate < 0.0:
        return Verdict.CONVERGENT
    return Verdict.DIVERGENT if log_power >= -1.0 else Verdict.CONVERGENT


def classify_shell_series(
    phi: RadialProfile,
    weight: WeightFunction,
    d: int,
    alpha: float,
    a: float,
) -> DivergenceVerdict:
    """Classify the shell-sampled series sum_i phi(s_i)^(d-a) * M(s_(i+1)).

    The radii s_i approach 1 geometrically (1 - s_(i+1) = rho*(1 - s_i) with
    rho = (1-a)/(1+a)), so each term behaves like exp(rate*L*i) * (L*i)^p
    with L = log(1/rho); the exponent rule of the tail integral then
    classifies divergence.  The first 48 terms are attached as evidence.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    exps = _tail_exponents(phi, weight, d, alpha)
    name = f"shell series: phi={type(phi).__name__}, M={type(weight).__name__}, a={a}"
    if exps is None:
        return DivergenceVerdict(
            Verdict.INCONCLUSIVE,
            {"reason": "profile or weight outside the closed-form enumeration"},
            name,
        )
    rate, log_power, _ = exps

    def from_gap(fn, gap):
        # evaluate phi/M at t = 1 - gap without forming 1 - gap (which rounds
        # to 1 for deep shells)
        if isinstance(fn, ConstantProfile):
            return np.full_like(gap, fn.c)
        if isinstance(fn, PowerProfile):
            return gap**fn.beta
        if isinstance(fn, LogProfile):
            return (1.0 - np.log(gap)) ** (-fn.p)
        if isinstance(fn, OneWeight):
            return np.ones_like(gap)
        if isinstance(fn, PowerWeight):
            return gap**-fn.gamma
        return (1.0 - np.log(gap)) ** fn.p

    rho = (1.0 - a) / (1.0 + a)
    one_minus_s = 0.5 * rho ** np.arange(1, 49, dtype=float)
    with np.errstate(over="ignore"):
        terms = from_gap(phi, one_minus_s[:-1]) ** (d - alpha) * from_gap(
            weight, one_minus_s[1:]
        )
    terms = np.minimum(terms, 1e300)
    return DivergenceVerdict(
        _classify_exponents(rate, log_power),
        {
            "rate": rate,
            "log_power": log_power,
            "step_log": math.log(1.0 / rho),
            "partial_sums": np.cumsum(terms).tolist(),
        },
        name,
    )


# ---------------------------------------------------------------------------
# Whitney-based sums
# ---------------------------------------------------------------------------

def _check_incidence(inc: CubeIncidence, config: BubbleConfig) -> None:
    if inc.n_balls != config.n:
        raise ValueError("the incidence was built for another configuration")


def _blocks(n: int):
    """Slices of at most _ROW_BLOCK rows that cover range(n) in order."""
    return (slice(i, min(i + _ROW_BLOCK, n)) for i in range(0, n, _ROW_BLOCK))


def _running_total(acc: float, terms: np.ndarray) -> float:
    """acc + t_1 + t_2 + ... added left to right, like the loop
    ``acc = acc + t`` (np.sum adds pairwise)."""
    if terms.size == 0:
        return acc
    return float(np.cumsum(np.concatenate(([acc], terms)))[-1])


def _shell(dist: np.ndarray) -> np.ndarray:
    """The dyadic shell n of each distance: 2^-(n+1) <= dist < 2^-n."""
    return np.ceil(-np.log2(dist)).astype(int) - 1


def _pair_bounds(lv: LevelPairs, config: BubbleConfig, consts: Constants, rows):
    """Capacity bounds of the pairs at ``rows`` of one level.  The upper
    bound is the bubble's; the lower bound comes from the largest ball
    inscribed in the bubble-cube intersection: a bubble whose center lies
    strictly inside the cube contributes min(r, distance of the center to
    the cube faces)."""
    d = config.dimension
    side = 2.0 ** (-lv.level)
    ball = lv.ball[rows]
    radii = config.radii[ball]
    upper = capacity_ball_bounds(consts, radii, d)[1]
    c = config.centers[ball]
    lo = lv.index[lv.cube[rows]] * side
    hi = lo + side
    rho = np.minimum(radii, np.minimum((c - lo).min(axis=1), (hi - c).min(axis=1)))
    lower = np.zeros(rho.size)
    inside = rho > 0.0
    lower[inside] = capacity_ball_bounds(consts, rho[inside], d)[0]
    return lower, upper


def _green_bounds(lv: LevelPairs, inc: CubeIncidence, consts: Constants, cubes):
    """Capped Green bounds at the centers of one level's cubes ``cubes``."""
    side = 2.0 ** (-lv.level)
    lo = lv.index[cubes] * side
    hi = lo + side
    return capped_green_bounds(inc.domain, consts, 0.5 * (lo + hi))


def _add_cap_bounds(cap_lower, cap_upper, groups, lower, upper) -> None:
    """Add pairs, with their (lower, upper) bounds, to the Cap(A ∩ Q) bounds
    of their cubes ``groups``, in the order given: the upper bound adds the
    meeting bubbles' capacities (subadditivity), the lower bound keeps the
    largest pair lower bound.  Start from zeros, and cap the lower bounds
    by the upper ones after the last pair."""
    np.add.at(cap_upper, groups, upper)
    np.maximum.at(cap_lower, groups, lower)


class _Level(NamedTuple):
    """The factors of one level's sums that do not depend on the boundary
    point, per cube of the level."""

    dist_weight: np.ndarray   # dist(Q, boundary)^(2(a-1))
    cap_lower: np.ndarray     # Cap(A ∩ Q) bounds over all bubbles
    cap_upper: np.ndarray
    qa_terms: tuple           # (lowest bubble id among the pairs, g^2 Cap lower, upper)


def _level_factors(lv: LevelPairs, inc: CubeIncidence, config: BubbleConfig,
                   consts: Constants) -> _Level:
    """The factors of one level's sums, a block of pairs or cubes at a time."""
    k = lv.dist.size
    cap_lower, cap_upper = np.zeros(k), np.zeros(k)
    for b in _blocks(lv.ball.size):
        _add_cap_bounds(cap_lower, cap_upper, lv.cube[b], *_pair_bounds(lv, config, consts, b))
    np.minimum(cap_lower, cap_upper, out=cap_lower)
    first_ball = np.full(k, config.n, dtype=np.int64)
    np.minimum.at(first_ball, lv.cube, lv.ball)
    qa_lower, qa_upper = np.empty(k), np.empty(k)
    for b in _blocks(k):
        gl, gu = _green_bounds(lv, inc, consts, b)
        qa_lower[b] = gl * gl * cap_lower[b]
        qa_upper[b] = gu * gu * cap_upper[b]
    return _Level(_pow_each(lv.dist, 2.0 * (consts.alpha - 1.0)), cap_lower, cap_upper,
                  (first_ball, qa_lower, qa_upper))


@dataclass(frozen=True)
class AikawaTrace:
    n_cubes: int             # cubes summed: every cube that meets a bubble
    total: tuple[float, float]
    uncovered_bubbles: np.ndarray
    warnings: list

    @property
    def cube_ids(self) -> np.ndarray:
        """The cubes summed, numbered in (level, lexicographic index) order."""
        return np.arange(self.n_cubes)


@dataclass(frozen=True)
class WienerTrace:
    shells: np.ndarray              # dyadic shell indices n, ascending
    term_lower: np.ndarray          # per shell, following shells
    term_upper: np.ndarray
    total: tuple[float, float]
    truncated_shells: np.ndarray    # shells overlapping the coverage collar


@dataclass(frozen=True)
class WhitneySums:
    """The Whitney-based sums of one configuration at every boundary point
    of a grid, from one pass over its incidence."""

    aikawa: list                       # AikawaTrace per boundary point
    wiener: list                       # WienerTrace per boundary point
    qa_numerator: tuple[float, float]  # sum_Q g(Q)^2 * Cap(A ∩ Q)
    qa_denominator: tuple[float, float]  # sum_k g(x_k)^2 * Cap(B_k)
    max_cubes_per_ball: int            # c2: the most cubes one bubble meets
    ratio_bound: float                 # C1: see whitney_sums

    def quasi_additivity(self) -> tuple[float, float]:
        """Ratio interval of the numerator to the denominator: the surrogate
        for capacity quasi-additivity over the Whitney cubes.  Reported, not
        asserted against any constant."""
        num, den = self.qa_numerator, self.qa_denominator
        if den[0] == 0.0 or num[0] == 0.0:
            raise ValueError("degenerate bounds; decomposition too shallow for this config")
        ratio = num[0] / den[1], num[1] / den[0]
        check_bounds(*ratio)
        return ratio


def whitney_sums(
    inc: CubeIncidence,
    config: BubbleConfig,
    points,
    consts: Constants,
    n_max: int = 30,
) -> WhitneySums:
    """Aikawa and Wiener sums at each boundary point of ``points`` (n, d),
    the quasi-additivity numerator and denominator, and the c2 and C1
    reports, from one pass over ``inc``, the cube-bubble incidence of
    ``config``, level by level.

    Aikawa at z: sum_j dist(Q_j, boundary)^(2(a-1)) / dist(z, Q_j)^(d+a-2)
    * Cap(A ∩ Q_j) over the cubes, in cube order.

    Wiener at z: per dyadic shell n the contribution 2^(n(d+a-2)) *
    sum_j g(x_j)^2 * Cap(E_n ∩ Q_j), with the bubbles assigned to shells by
    center distance; bubbles at distance >= 1/2 from z are in no shell, and
    shells reaching below the coverage collar are flagged as truncated.

    C1 is the smallest C >= 1 such that, for every bubble and cube that
    meet, dist(Q, boundary)/delta_D(x_k) and, at every boundary point z,
    dist(z, Q)/|x_k - z| lie in [1/C, C].  Bubbles below the collar are
    reported in every Aikawa trace, not silently dropped.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_incidence(inc, config)
    d = config.dimension
    a = consts.alpha
    dom = inc.domain
    points = np.asarray(points, dtype=float).reshape(-1, d)
    for z in points:
        if abs(float(np.sqrt(((z - dom.center) ** 2).sum())) - dom.radius) > 1e-9:
            raise ValueError("z must lie on the boundary sphere")
    n_points = len(points)

    # the bubbles: each point's Wiener shells, the quasi-additivity
    # denominator and the bubbles above the small-radius threshold
    present = np.zeros((n_points, n_max + 1), dtype=bool)
    den = (0.0, 0.0)
    r_thresh = small_radius_threshold(consts, d)
    n_big = 0
    for b in _blocks(config.n):
        c, r = config.centers[b], config.radii[b]
        gl, gu = capped_green_bounds(dom, consts, c)
        cl, cu = capacity_ball_bounds(consts, r, d)
        den = _running_total(den[0], gl * gl * cl), _running_total(den[1], gu * gu * cu)
        n_big += int((r > r_thresh).sum())
        for j, z in enumerate(points):
            shell = _shell(np.sqrt(((c - z) ** 2).sum(axis=1)))
            present[j, shell[(shell >= 1) & (shell <= n_max)]] = True

    # the pairs, a level at a time: cubes are numbered on from level to level
    aik = np.zeros((n_points, 2))
    wiener_parts = [[] for _ in range(n_points)]
    qa_parts = []
    cubes_per_ball = np.zeros(config.n, dtype=np.int64)
    worst = 1.0
    n_cubes = 0
    w_exp = d + a - 2.0
    for lv in inc.levels():
        f = _level_factors(lv, inc, config, consts)
        side = 2.0 ** (-lv.level)
        k = lv.dist.size
        qa_parts.append(f.qa_terms)
        balls, counts = np.unique(lv.ball, return_counts=True)
        cubes_per_ball[balls] += counts
        for b in _blocks(lv.ball.size):
            r1 = lv.dist[lv.cube[b]] / config.deltas[lv.ball[b]]
            worst = max(worst, float(r1.max()), float((1.0 / r1).max()))
        for j, z in enumerate(points):
            dzq = np.empty(k)
            for b in _blocks(k):
                lo = lv.index[b] * side
                dzq[b] = np.sqrt(((z - np.clip(z, lo, lo + side)) ** 2).sum(axis=1))
                w = f.dist_weight[b] / _pow_each(dzq[b], w_exp)
                lower, upper = f.cap_lower[b] * w, f.cap_upper[b] * w
                check_bounds(lower, upper)
                aik[j] = _running_total(aik[j, 0], lower), _running_total(aik[j, 1], upper)
            pos, shells = [], []
            for b in _blocks(lv.ball.size):
                dist = np.sqrt(((config.centers[lv.ball[b]] - z) ** 2).sum(axis=1))
                r2 = dzq[lv.cube[b]] / dist
                worst = max(worst, float(r2.max()), float((1.0 / r2).max()))
                shell = _shell(dist)
                keep = np.flatnonzero((shell >= 1) & (shell <= n_max))
                pos.append(b.start + keep)
                shells.append(shell[keep])
            pos, shells = np.concatenate(pos), np.concatenate(shells)
            if pos.size:
                wiener_parts[j].append(
                    _shell_terms(lv, inc, config, consts, pos, shells, n_cubes))
        n_cubes += k
        del lv, f   # before the next level is built

    uncovered = np.flatnonzero(cubes_per_ball == 0)
    warnings = []
    if n_big:
        warnings.append(
            f"{n_big} bubbles exceed the small-radius threshold {r_thresh:.4g}; "
            "capacity quasi-additivity hypotheses are not certified"
        )
    if uncovered.size:
        warnings.append(
            f"{uncovered.size} bubbles lie below the Whitney coverage collar; "
            "their contribution needs a tail estimate"
        )
    aikawa = []
    for lower, upper in aik.tolist():
        check_bounds(lower, upper)
        aikawa.append(AikawaTrace(n_cubes, (lower, upper), uncovered, list(warnings)))
    wiener = [
        _wiener_trace(parts, np.flatnonzero(shells), inc, d, a)
        for parts, shells in zip(wiener_parts, present)
    ]
    return WhitneySums(aikawa, wiener, _first_appearance_total(qa_parts), den,
                       int(cubes_per_ball.max(initial=0)), worst)


def _shell_terms(lv: LevelPairs, inc: CubeIncidence, config: BubbleConfig,
                 consts: Constants, pos: np.ndarray, shells: np.ndarray, n_before: int):
    """One term per (shell, cube) of one level's pairs at ``pos``, which fall
    in ``shells``: g^2 * Cap(E_n ∩ Q) bounds over those pairs, added in
    pair order, with the shell, the lowest bubble id among the pairs and
    the cube's number."""
    k = lv.dist.size
    key, first, inverse = np.unique(shells * k + lv.cube[pos], return_index=True,
                                    return_inverse=True)
    lower, upper = np.zeros(key.size), np.zeros(key.size)
    _add_cap_bounds(lower, upper, inverse, *_pair_bounds(lv, config, consts, pos))
    np.minimum(lower, upper, out=lower)
    cube = key % k
    gl, gu = _green_bounds(lv, inc, consts, cube)
    return key // k, lv.ball[pos[first]], n_before + cube, gl * gl * lower, gu * gu * upper


def _first_appearance_total(parts) -> tuple[float, float]:
    """Totals of terms (lower, upper) given with the lowest bubble id among
    their cube's pairs, in cube order, added in order of first appearance
    among the pairs sorted by bubble and then by cube: by bubble id, ties
    kept in cube order."""
    if not parts:
        return 0.0, 0.0
    first, lower, upper = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(first, kind="stable")
    del first
    total = (0.0, 0.0)
    for b in _blocks(order.size):
        at = order[b]
        total = _running_total(total[0], lower[at]), _running_total(total[1], upper[at])
    return total


def _wiener_trace(parts, shells: np.ndarray, inc: CubeIncidence, d: int, a: float) -> WienerTrace:
    """A point's Wiener trace from its (shell, first bubble, cube, lower,
    upper) terms and its shells: each shell's terms in order of first
    appearance, scaled by 2^(n(d+a-2))."""
    terms = np.zeros((shells.size, 2))
    if parts:
        shell, first, cube, lower, upper = (np.concatenate(col) for col in zip(*parts))
        order = np.lexsort((cube, first, shell))
        shell, lower, upper = shell[order], lower[order], upper[order]
        stops = np.searchsorted(shell, shells, side="right")
        starts = np.searchsorted(shell, shells, side="left")
        for j, (n, lo, hi) in enumerate(zip(shells.tolist(), starts.tolist(), stops.tolist())):
            terms[j] = _running_total(0.0, lower[lo:hi]), _running_total(0.0, upper[lo:hi])
            terms[j] *= 2.0 ** (n * (d + a - 2.0))
    lower, upper = terms.T
    check_bounds(lower, upper)
    total = _running_total(0.0, lower), _running_total(0.0, upper)
    check_bounds(*total)
    truncated = shells[2.0 ** (-shells.astype(float)) <= 2.0 * inc.coverage_threshold]
    return WienerTrace(shells, lower, upper, total, truncated)


def aikawa_sum(
    inc: CubeIncidence, config: BubbleConfig, z, consts: Constants
) -> AikawaTrace:
    """Cube-indexed thinness sum at the boundary point z (see
    :func:`whitney_sums`) as (lower, upper) bounds over the cubes of
    ``inc``, the cube-bubble incidence of ``config``."""
    return whitney_sums(inc, config, [z], consts).aikawa[0]


def wiener_dyadic_sum(
    inc: CubeIncidence,
    config: BubbleConfig,
    z,
    consts: Constants,
    n_max: int = 30,
) -> WienerTrace:
    """Dyadic-shell thinness sum at the boundary point z (see
    :func:`whitney_sums`) over shells 1..n_max, as (lower, upper) bounds
    per shell."""
    return whitney_sums(inc, config, [z], consts, n_max).wiener[0]


def quasi_additivity_interval(
    inc: CubeIncidence, config: BubbleConfig, consts: Constants
) -> tuple[float, float]:
    """Ratio interval for sum_j gamma_g(A ∩ Q_j) versus the per-bubble energy
    sum (:meth:`WhitneySums.quasi_additivity`) over the Whitney cubes of
    ``inc``, the cube-bubble incidence of ``config``."""
    if config.n == 0:
        raise ValueError("quasi-additivity ratio needs a nonempty configuration")
    return whitney_sums(inc, config, [], consts).quasi_additivity()


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvoidabilityReport:
    verdict: DivergenceVerdict     # the same at every grid point
    per_z_totals: np.ndarray       # final partial sum of the boundary series per grid point
    separation: float
    aggregate: str                 # "unavoidable" | "avoidable-candidate" | "inconclusive"
    notes: list


def classify_avoidability(
    config: BubbleConfig,
    consts: Constants,
    points,
    phi: RadialProfile | None = None,
    weight: WeightFunction = OneWeight(),
) -> AvoidabilityReport:
    """One verdict for the boundary grid ``points`` (n, d), the boundary
    series total at each point, and an aggregate.

    With a radial profile ``phi`` (and tail weight ``weight``) describing the
    configuration's tail, and shell metadata (``meta["a"]``), the verdict
    comes from the analytic shell-series reduction, which does not depend on
    the grid point; otherwise it is Inconclusive with the series totals as
    diagnostics, and a note says why.  Aggregate "unavoidable" requires a
    divergent verdict and a positive separation infimum; "avoidable-candidate"
    requires a convergent one; anything else is inconclusive.
    """
    notes = [
        "a.e.-boundary statements are proxied by a deterministic grid",
    ]
    points = np.asarray(points, dtype=float)
    alpha = consts.alpha

    if config.n == 0:
        verdict = DivergenceVerdict(Verdict.CONVERGENT, {"reason": "empty configuration"}, "empty")
        return AvoidabilityReport(
            verdict, np.zeros(len(points)), math.inf, "avoidable-candidate", notes
        )

    if phi is not None and "a" in config.meta:
        verdict = classify_shell_series(
            phi, weight, config.dimension, alpha, float(config.meta["a"])
        )
        notes.append(f"analytic route: {verdict.tail_model}")
    else:
        reason = "no tail model given" if phi is None else "no shell metadata (meta['a'])"
        notes.append(f"{reason}: truncated sums cannot decide divergence")
        verdict = DivergenceVerdict(Verdict.INCONCLUSIVE, {}, "truncated series")

    totals = np.array([_series_total(config, z, alpha) for z in points])
    separation = separation_infimum(config, alpha)
    if verdict.tag == Verdict.DIVERGENT and separation > 0.0:
        aggregate = "unavoidable"
    elif verdict.tag == Verdict.CONVERGENT:
        aggregate = "avoidable-candidate"
    else:
        aggregate = "inconclusive"
    return AvoidabilityReport(verdict, totals, separation, aggregate, notes)
