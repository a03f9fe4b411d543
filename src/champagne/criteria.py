"""Numerical evaluation and divergence classification of avoidability criteria.

Divergence is never claimed from truncated numerics: a Divergent/Convergent
verdict requires the analytic tail reduction available for the closed-form
profile enumeration, otherwise the verdict is Inconclusive and the boundary
series totals are the diagnostics.  The enumeration lives in ``bubbles``:
each family declares its tail exponents there, and
:func:`classify_shell_series` reads them.  The verdict describes the
bubbles it judges: :func:`classify_avoidability` takes the profile and the
shell parameter from the configuration's own generation record.  The tail
integrand is therefore phi(t)^(d-a) alone: a weight M(t) multiplying it,
as in the general criterion, is left out, because no generated family
realises an M other than 1, and any other M would move the verdict without
moving a bubble.  "sigma-a.e. boundary point" is
operationalized as every point of a deterministic boundary grid plus the
rotation-symmetry property of shell configurations; reports state this proxy.

The Whitney-based sums (Aikawa, Wiener, quasi-additivity) take the
configuration they judge and a ``max_level``, and run over its cube-bubble
incidence (:func:`whitney.incidence_levels`): (bubble, cube) pairs one
level at a time, sorted by bubble and then by cube.  Bubbles with no pair
lie below the coverage collar.  :func:`whitney_sums` makes one pass over
the levels for every point of a boundary grid: each level's factors that
do not depend on the point (each cube's Cap(A ∩ Q) bounds, boundary-distance
weight and Green factor) are computed once, and the level is dropped before
the next is built.  The kernels are their comparison functions (see
``kernels``), and the configuration's own distances to the boundary give
each bubble's Green factor.  Each Cap(A ∩ Q) is a (lower, upper) pair
bracketed by geometry alone: the largest ball inscribed in a bubble and the
cube below, subadditivity over the meeting bubbles above.  So every Whitney
sum is a (lower, upper) pair, checked by :func:`kernels.check_bounds`, and
adds its cubes in ascending cube number (level, then lexicographic index)
left to right, as a running total carried from level to level, which
matches a plain loop over the cubes bit for bit.  :class:`WhitneySums` holds
the sums as arrays per point and per (point, dyadic shell), and what
belongs to the run once, as counts: the cubes summed, the bubbles below the
collar, and those above the small-radius threshold of ``kernels``, for which
the quasi-additivity hypotheses are not certified.  The quasi-additivity
interval is None without a positive lower bound, as when ``max_level`` is
too shallow for any cube to meet a bubble.  The boundary series of
:func:`classify_avoidability` is one pass over the bubbles for every point.

Memory.  Beyond the level in hand (8 bytes a pair, see ``whitney``), the
pass keeps two floats per point for Aikawa, two per (point, shell) for
Wiener and two for the quasi-additivity numerator, one flag per (point,
shell) for the shells that hold a bubble, and one int32 count per bubble
for c2; no per-cube term outlives its level.  A level's factors hold four
floats a cube and two a pair (16 bytes a pair beside the level's 8), so
that every point's Wiener terms reuse the capacity bounds and the Green
factor of its pairs and cubes.  Every pass over bubbles, pairs or cubes
takes _ROW_BLOCK rows at a time, which bounds its temporaries: the Wiener
shells and the quasi-additivity denominator over the bubbles, the pair and
cube factors of a level, and the boundary series totals of
:func:`classify_avoidability`.
``kernels._pow_each`` raises ``kernels._POW_BLOCK`` values at a time.
``whitney`` bounds the building of a level (_BALL_BLOCK,
_CANDIDATE_CHUNK).  No block size changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bubbles import BubbleConfig, RadialProfile, _fibonacci_sphere
from .geometry import BallDomain, dist_to_boundary, row_norms
from .kernels import _pow_each, ball_capacity, capped_green, check_bounds, small_radius_threshold
# intersecting_cubes is the per-ball reference for the incidence; it stays
# importable from here
from .whitney import (  # noqa: F401
    LevelPairs,
    coverage_threshold,
    incidence_levels,
    intersecting_cubes,
)

__all__ = [
    "uniform_boundary_grid",
    "Verdict",
    "DivergenceVerdict",
    "classify_shell_series",
    "aikawa_sum",
    "WhitneySums",
    "whitney_sums",
    "AvoidabilityReport",
    "classify_avoidability",
]

# rows of bubbles, pairs or cubes that a pass takes at a time
_ROW_BLOCK = 1 << 13


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
        return {"tag": self.tag.value, "tail_model": self.tail_model, "evidence": self.evidence}


# ---------------------------------------------------------------------------
# boundary series
# ---------------------------------------------------------------------------

def _series_totals(config: BubbleConfig, points: np.ndarray, alpha: float) -> np.ndarray:
    """The boundary series at each point z of ``points`` (n, d): the
    per-bubble terms delta^(2a-2) * r^(d-a) / |x-z|^(d+a-2) added left to
    right in config order.  One pass takes _ROW_BLOCK bubbles at a time for
    every point, and each block's numerators delta^(2a-2) * r^(d-a) are
    computed once."""
    d = config.dimension
    totals = [0.0] * len(points)
    for b in _blocks(config.n):
        num = config.deltas[b] ** (2.0 * alpha - 2.0) * config.radii[b] ** (d - alpha)
        for j, z in enumerate(points):
            dist = row_norms(config.centers[b], z)
            if float(dist.min()) == 0.0:
                raise ValueError("a bubble center coincides with the boundary point z")
            totals[j] = _running_total(totals[j], num / dist ** (d + alpha - 2.0))
    return np.array(totals)


# ---------------------------------------------------------------------------
# analytic tail classification
# ---------------------------------------------------------------------------

def _classify_exponents(rate: float, log_power: float) -> Verdict:
    # integral of exp(rate*u) * (1+u)^log_power du over an infinite tail
    if rate > 0.0:
        return Verdict.DIVERGENT
    if rate < 0.0:
        return Verdict.CONVERGENT
    return Verdict.DIVERGENT if log_power >= -1.0 else Verdict.CONVERGENT


def classify_shell_series(phi: RadialProfile, d: int, alpha: float, a: float) -> DivergenceVerdict:
    """Classify the shell-sampled series sum_i phi(s_i)^(d-a).

    The tail integrand phi(t)^(d-a) is const * exp(rate*u) *
    (1+u)^log_power in u = -log(1-t), with the profile family's exponents
    (``tail`` in ``bubbles``).  The radii s_i approach 1 geometrically
    (1 - s_(i+1) = rho*(1 - s_i) with rho = (1-a)/(1+a)), so each term
    behaves like exp(rate*L*i) * (L*i)^p with L = log(1/rho); the exponent
    rule of the tail integral then classifies divergence.  The evidence is
    rate, log_power and step_log = L; a profile outside the families is
    Inconclusive.  No weight M multiplies the integrand: it would change the
    verdict without changing a bubble.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    name = f"shell series: phi={type(phi).__name__}, a={a}"
    if not hasattr(phi, "tail"):
        return DivergenceVerdict(Verdict.INCONCLUSIVE, {
            "reason": "profile outside the closed-form enumeration"}, name)
    rate, log_power = phi.tail(d, alpha)
    rho = (1.0 - a) / (1.0 + a)
    evidence = {"rate": rate, "log_power": log_power, "step_log": math.log(1.0 / rho)}
    return DivergenceVerdict(_classify_exponents(rate, log_power), evidence, name)


# ---------------------------------------------------------------------------
# Whitney-based sums
# ---------------------------------------------------------------------------

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


def _pair_bounds(lv: LevelPairs, config: BubbleConfig, alpha: float, rows):
    """Capacity bounds of the pairs at ``rows`` of one level: the capacity
    at the bubble's radius r above, and below the capacity at the radius
    rho of the largest ball inscribed in the bubble-cube intersection: a
    bubble whose center lies strictly inside the cube contributes
    rho = min(r, distance of the center to the cube faces)."""
    d = config.dimension
    side = 2.0 ** (-lv.level)
    ball = lv.ball[rows]
    radii = config.radii[ball]
    upper = ball_capacity(alpha, radii, d)
    c = config.centers[ball]
    lo = lv.index[lv.cube[rows]] * side
    hi = lo + side
    rho = np.minimum(radii, np.minimum((c - lo).min(axis=1), (hi - c).min(axis=1)))
    lower = np.zeros(rho.size)
    inside = rho > 0.0
    lower[inside] = ball_capacity(alpha, rho[inside], d)
    return lower, upper


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
    point: per cube of the level, and per pair for the pairs' capacity
    bounds, which each point's Wiener terms add over its own pairs."""

    dist_weight: np.ndarray   # dist(Q, boundary)^(2(a-1))
    cap_lower: np.ndarray     # Cap(A ∩ Q) bounds over all bubbles
    cap_upper: np.ndarray
    green: np.ndarray         # capped Green factor at the cube's center
    pair_lower: np.ndarray    # per pair: _pair_bounds
    pair_upper: np.ndarray


def _level_factors(lv: LevelPairs, config: BubbleConfig, alpha: float) -> _Level:
    """The factors of one level's sums, a block of pairs or cubes at a time."""
    k, m = lv.dist.size, lv.ball.size
    cap_lower, cap_upper = np.zeros(k), np.zeros(k)
    pair_lower, pair_upper = np.empty(m), np.empty(m)
    for b in _blocks(m):
        pair_lower[b], pair_upper[b] = _pair_bounds(lv, config, alpha, b)
        _add_cap_bounds(cap_lower, cap_upper, lv.cube[b], pair_lower[b], pair_upper[b])
    np.minimum(cap_lower, cap_upper, out=cap_lower)
    green = np.empty(k)
    side = 2.0 ** (-lv.level)
    for b in _blocks(k):
        lo = lv.index[b] * side
        # at each cube's center
        green[b] = capped_green(alpha, dist_to_boundary(config.domain, 0.5 * (lo + (lo + side))))
    return _Level(_pow_each(lv.dist, 2.0 * (alpha - 1.0)), cap_lower, cap_upper,
                  green, pair_lower, pair_upper)


@dataclass(frozen=True)
class WhitneySums:
    """The Whitney-based sums of one configuration at every boundary point
    of a grid, from one pass over its incidence: arrays indexed by point
    and dyadic shell, and each count of the run once."""

    aikawa: np.ndarray                 # (points, 2): lower, upper totals
    wiener: np.ndarray                 # (points, n_max + 1, 2): scaled shell terms
    wiener_shells: np.ndarray          # (points, n_max + 1) bool: shells that hold a bubble
    truncated: np.ndarray              # (n_max + 1,) bool: shells reaching the coverage collar
    n_cubes: int                       # cubes summed: every cube that meets a bubble
    n_uncovered: int                   # bubbles below the coverage collar
    n_above_small_radius: int          # bubbles above kernels.small_radius_threshold
    qa_numerator: tuple[float, float]  # sum_Q g(Q)^2 * Cap(A ∩ Q)
    qa_denominator: float              # sum_k g(x_k)^2 * Cap(B_k)
    max_cubes_per_ball: int            # c2: the most cubes one bubble meets
    ratio_bound: float                 # C1: see whitney_sums

    def quasi_additivity(self) -> tuple[float, float] | None:
        """Ratio interval of the numerator to the denominator: the surrogate
        for capacity quasi-additivity over the Whitney cubes.  Reported, not
        asserted against any constant.  None without a positive lower bound:
        no cube meets a bubble at a positive inscribed radius (a shallow
        ``max_level``), or there is no bubble."""
        num, den = self.qa_numerator, self.qa_denominator
        if den == 0.0 or num[0] == 0.0:
            return None
        ratio = num[0] / den, num[1] / den
        check_bounds(*ratio)
        return ratio


def whitney_sums(
    config: BubbleConfig,
    points,
    alpha: float,
    max_level: int,
    n_max: int = 30,
) -> WhitneySums:
    """Aikawa and Wiener sums at each boundary point of ``points`` (n, d),
    the quasi-additivity numerator and denominator, and the c2 and C1
    reports, from one pass over the cube-bubble incidence of ``config``
    with the Whitney cubes down to ``max_level``, level by level.

    Every sum runs over the cubes Q_j in cube order (level, then
    lexicographic index), as a running total from level to level.

    Aikawa at z: sum_j dist(Q_j, boundary)^(2(a-1)) / dist(z, Q_j)^(d+a-2)
    * Cap(A ∩ Q_j).

    Wiener at z: per dyadic shell n the contribution 2^(n(d+a-2)) *
    sum_j g(x_j)^2 * Cap(E_n ∩ Q_j), with the bubbles assigned to shells by
    center distance; the scale is applied after the last level, to the
    shells that hold a bubble (``wiener_shells``), and the other shells'
    terms stay 0.  Bubbles at distance >= 1/2 from z are in no shell, and
    the shells reaching below the coverage collar are flagged in
    ``truncated``.

    Quasi-additivity numerator: sum_j g(x_j)^2 * Cap(A ∩ Q_j), with x_j the
    center of Q_j.

    C1 is the smallest C >= 1 such that, for every bubble and cube that
    meet, dist(Q, boundary)/delta_D(x_k) and, at every boundary point z,
    dist(z, Q)/|x_k - z| lie in [1/C, C].  Bubbles below the collar are
    counted (``n_uncovered``), not silently dropped, and so are those above
    the small-radius threshold (``n_above_small_radius``).  No count fails
    the call: with no cube summed every sum is 0 and
    :meth:`WhitneySums.quasi_additivity` is None.

    Every point must lie on the boundary sphere to within 1e-9 * R, a
    tolerance that scales with the domain as the sums do.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = config.dimension
    dom = config.domain
    points = np.asarray(points, dtype=float).reshape(-1, d)
    if np.any(np.abs(row_norms(points, dom.center) - dom.radius) > 1e-9 * dom.radius):
        raise ValueError("z must lie on the boundary sphere")
    n_points = len(points)

    # the bubbles: each point's Wiener shells, the quasi-additivity
    # denominator and the bubbles above the small-radius threshold
    present = np.zeros((n_points, n_max + 1), dtype=bool)
    den = 0.0
    r_thresh = small_radius_threshold(alpha, d)
    n_big = 0
    for b in _blocks(config.n):
        c, r = config.centers[b], config.radii[b]
        g = capped_green(alpha, config.deltas[b])
        den = _running_total(den, g * g * ball_capacity(alpha, r, d))
        n_big += int((r > r_thresh).sum())
        for j, z in enumerate(points):
            shell = _shell(row_norms(c, z))
            present[j, shell[(shell >= 1) & (shell <= n_max)]] = True

    # the pairs, a level at a time, with running (lower, upper) totals
    aik = np.zeros((n_points, 2))
    wiener = np.zeros((n_points, n_max + 1, 2))
    qa = (0.0, 0.0)
    cubes_per_ball = np.zeros(config.n, dtype=np.int32)
    worst = 1.0
    n_cubes = 0
    w_exp = d + alpha - 2.0
    for lv in incidence_levels(config, max_level):
        f = _level_factors(lv, config, alpha)
        side = 2.0 ** (-lv.level)
        k = lv.dist.size
        for b in _blocks(k):
            g2 = f.green[b] * f.green[b]
            qa = (_running_total(qa[0], g2 * f.cap_lower[b]),
                  _running_total(qa[1], g2 * f.cap_upper[b]))
        balls, counts = np.unique(lv.ball, return_counts=True)
        cubes_per_ball[balls] += counts
        for b in _blocks(lv.ball.size):
            r1 = lv.dist[lv.cube[b]] / config.deltas[lv.ball[b]]
            worst = max(worst, float(r1.max()), float((1.0 / r1).max()))
        for j, z in enumerate(points):
            dzq = np.empty(k)
            for b in _blocks(k):
                lo = lv.index[b] * side
                dzq[b] = row_norms(np.clip(z, lo, lo + side), z)
                w = f.dist_weight[b] / _pow_each(dzq[b], w_exp)
                lower, upper = f.cap_lower[b] * w, f.cap_upper[b] * w
                check_bounds(lower, upper)
                aik[j] = _running_total(aik[j, 0], lower), _running_total(aik[j, 1], upper)
            pos, shells = [], []
            for b in _blocks(lv.ball.size):
                dist = row_norms(config.centers[lv.ball[b]], z)
                r2 = dzq[lv.cube[b]] / dist
                worst = max(worst, float(r2.max()), float((1.0 / r2).max()))
                shell = _shell(dist)
                keep = np.flatnonzero((shell >= 1) & (shell <= n_max))
                pos.append(b.start + keep)
                shells.append(shell[keep])
            pos, shells = np.concatenate(pos), np.concatenate(shells)
            if pos.size:
                # the terms come sorted by shell and then by cube, and
                # np.add.at adds them in that order
                shell, lower, upper = _shell_terms(lv, f, pos, shells)
                np.add.at(wiener[j, :, 0], shell, lower)
                np.add.at(wiener[j, :, 1], shell, upper)
        n_cubes += k
        del lv, f   # before the next level is built

    check_bounds(aik[:, 0], aik[:, 1])
    # only the shells that hold a bubble are scaled: 2^(n(d+a-2)) passes
    # the float range long before n reaches its bound of 1074
    for n in np.flatnonzero(present.any(axis=0)).tolist():
        wiener[present[:, n], n] *= 2.0 ** (n * w_exp)
    check_bounds(wiener[..., 0], wiener[..., 1])
    # each point's total, its shells added in ascending order
    check_bounds(*np.cumsum(wiener, axis=1)[:, -1].T)
    truncated = 2.0 ** -np.arange(n_max + 1.0) <= 2.0 * coverage_threshold(d, max_level)
    return WhitneySums(aik, wiener, present, truncated, n_cubes, int((cubes_per_ball == 0).sum()),
                       n_big, qa, den, int(cubes_per_ball.max(initial=0)), worst)


def _shell_terms(lv: LevelPairs, f: _Level, pos: np.ndarray, shells: np.ndarray):
    """One term per (shell, cube) of one level's pairs at ``pos``, which fall
    in ``shells``: the shell and the g^2 * Cap(E_n ∩ Q) bounds over those
    pairs, added in pair order, sorted by shell and then by cube.  The pair
    bounds and the Green factor come from the level's factors ``f``; both
    are elementwise, so they equal values computed for these pairs alone."""
    k = lv.dist.size
    # shells * k can pass 2^31, so the key is formed in int64
    key, inverse = np.unique(shells.astype(np.int64, copy=False) * k + lv.cube[pos],
                             return_inverse=True)
    lower, upper = np.zeros(key.size), np.zeros(key.size)
    _add_cap_bounds(lower, upper, inverse, f.pair_lower[pos], f.pair_upper[pos])
    np.minimum(lower, upper, out=lower)
    cubes = key % k
    g2 = f.green[cubes] * f.green[cubes]
    return key // k, g2 * lower, g2 * upper


def aikawa_sum(config: BubbleConfig, z, alpha: float, max_level: int) -> tuple[float, float]:
    """Cube-indexed thinness sum at the boundary point z (see
    :func:`whitney_sums`) as (lower, upper) bounds over the Whitney cubes
    down to ``max_level`` that meet a bubble of ``config``."""
    return tuple(whitney_sums(config, [z], alpha, max_level).aikawa[0].tolist())


# ---------------------------------------------------------------------------
# aggregate classification
# ---------------------------------------------------------------------------

_AGGREGATES = {Verdict.DIVERGENT: "unavoidable", Verdict.CONVERGENT: "avoidable-candidate",
               Verdict.INCONCLUSIVE: "inconclusive"}


@dataclass(frozen=True)
class AvoidabilityReport:
    verdict: DivergenceVerdict     # one for the whole grid
    per_z_totals: np.ndarray       # final partial sum of the boundary series per grid point
    separation: np.ndarray | None  # per shell: _separation_ratios
    aggregate: str                 # "unavoidable" | "avoidable-candidate" | "inconclusive"
    notes: list


def _separation_ratios(config: BubbleConfig, alpha: float) -> np.ndarray | None:
    """Per shell i, a lower bound on |x_j - x_k| / (r_k^(1-a/d) delta_k^(a/d))
    over its bubbles k and every other bubble j: the centre gap that
    ``bubbles.generate_shell_config`` records (``meta["center_gap"]``) over
    r_i^(1-a/d) u_i^(a/d), with u_i = 1 - t_i and r_i = u_i phi(t_i).  None
    without that record and the profile."""
    meta = config.meta
    if "center_gap" not in meta or "phi" not in meta:
        return None
    d = config.dimension
    t = np.asarray(meta["t"])
    u = 1.0 - t
    r = u * meta["phi"](t)
    return np.asarray(meta["center_gap"]) / (r ** (1.0 - alpha / d) * u ** (alpha / d))


def classify_avoidability(config: BubbleConfig, alpha: float, points) -> AvoidabilityReport:
    """One verdict for the boundary grid ``points`` (n, d), the boundary
    series total at each point, and an aggregate.

    The verdict reads the profile and the shell parameter that
    ``bubbles.generate_shell_config`` records in the configuration's
    ``meta`` (``meta["phi"]``, ``meta["a"]``), so it describes the bubbles
    it is given, and comes from the analytic shell-series reduction, which
    does not depend on the grid point.  A configuration without that record,
    such as one built by hand, gets an Inconclusive verdict with the series
    totals as diagnostics, and a note says why.

    The separation is each shell's ratio from the generator's closed-form
    centre gap (``_separation_ratios``), or None for a configuration
    without that record.  The aggregate is "unavoidable" exactly when the
    verdict is divergent, "avoidable-candidate" when it is convergent and
    "inconclusive" otherwise: the spacing rule keeps every shell's ratio
    positive by construction, so a positive separation decides nothing, and
    a note says so.
    """
    notes = [
        "a.e.-boundary statements are proxied by a deterministic grid",
    ]
    points = np.asarray(points, dtype=float)

    if config.n == 0:
        verdict = DivergenceVerdict(Verdict.CONVERGENT, {"reason": "empty configuration"}, "empty")
        return AvoidabilityReport(verdict, np.zeros(len(points)), None, _AGGREGATES[verdict.tag],
                                  notes)

    if "phi" in config.meta and "a" in config.meta:
        verdict = classify_shell_series(
            config.meta["phi"], config.dimension, alpha, float(config.meta["a"])
        )
        notes.append(f"analytic route: {verdict.tail_model}")
    else:
        notes.append("no shell metadata (meta['phi'], meta['a']): "
                     "truncated sums cannot decide divergence")
        verdict = DivergenceVerdict(Verdict.INCONCLUSIVE, {}, "truncated series")

    notes.append("separation: the generator's spacing rule keeps every shell's ratio "
                 "|x_j - x_k| / (r_k^(1-a/d) delta_k^(a/d)) positive by construction, so the "
                 "aggregate does not read it; whether it stays bounded below as shells are "
                 "added is not judged")
    return AvoidabilityReport(verdict, _series_totals(config, points, alpha),
                              _separation_ratios(config, alpha), _AGGREGATES[verdict.tag], notes)
