"""Numerical evaluation and divergence classification of avoidability criteria.

Divergence is never claimed from truncated numerics: a Divergent/Convergent
verdict requires the analytic tail reduction available for the closed-form
profile/weight enumeration, otherwise the verdict is Inconclusive and carries
partial sums as diagnostics.  "sigma-a.e. boundary point" is operationalized
as every point of a deterministic boundary grid plus the rotation-symmetry
property of shell configurations; reports state this proxy.

The Whitney-based sums (Aikawa, Wiener, quasi-additivity) all take the
configuration's cube-bubble incidence (:func:`whitney.ball_cube_incidence`):
its (bubble, cube) pairs sorted by bubble and then by cube, built once and
shared by every sum.  Bubbles with no pair lie below the coverage collar.
Their z-independent factors (each cube's Cap(A ∩ Q) bounds and capped
Green value) are computed once and reused for every boundary point.  Every
quantity is a (lower, upper) pair of floats or of arrays, checked by
:func:`kernels.check_bounds`.  Sums add left to right in a fixed order
(cubes ascending for Aikawa, in order of first appearance among the pairs
otherwise), so totals match a plain loop over the bubbles and cubes, one
scalar (lower, upper) pair at a time, bit for bit.
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
from .whitney import CubeIncidence, intersecting_cubes  # noqa: F401

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
    "AvoidabilityReport",
    "classify_avoidability",
]


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


def _series_terms(config: BubbleConfig, z: np.ndarray, alpha: float) -> np.ndarray:
    d = config.dimension
    dist = np.sqrt(((config.centers - z) ** 2).sum(axis=1))
    if config.n and float(dist.min()) == 0.0:
        raise ValueError("a bubble center coincides with the boundary point z")
    return (
        config.deltas ** (2.0 * alpha - 2.0)
        * config.radii ** (d - alpha)
        / dist ** (d + alpha - 2.0)
    )


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


def _cap_bounds(pos: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Cap(A ∩ Q) bounds per cube from its pairs: the upper bound adds the
    meeting bubbles' capacities (subadditivity); the lower bound is the
    largest pair lower bound.  ``pos`` is each pair's cube position; cubes
    come out in order of first appearance, the order a dict filled pair by
    pair keeps.  bincount adds each cube's pairs in their given order, as
    that dict fill does.  Returns (cube positions, lower, upper)."""
    uniq, first, inverse = np.unique(pos, return_index=True, return_inverse=True)
    up = np.bincount(inverse, weights=upper, minlength=uniq.size)
    lo = np.zeros(uniq.size)  # pair lower bounds are >= 0
    np.maximum.at(lo, inverse, lower)
    order = np.argsort(first)
    return uniq[order], np.minimum(lo, up)[order], up[order]


def _total(terms: np.ndarray) -> float:
    """Sum in sequence, like the loop ``acc = acc + t`` (np.sum is pairwise)."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


class _CubeFactors(NamedTuple):
    """The z-independent factors of the criteria sums over one incidence.
    Cube arrays follow the incidence's cube numbers; pair arrays follow its
    pairs, whose cube numbers are ``inc.cube``."""

    lo: np.ndarray            # (m, d) cube boxes
    hi: np.ndarray
    dist_weight: np.ndarray   # dist(Q, boundary)^(2(a-1))
    g_lower: np.ndarray       # capped Green bounds at the cube center
    g_upper: np.ndarray
    pair_lower: np.ndarray
    pair_upper: np.ndarray
    first_order: np.ndarray   # cube positions in order of first appearance
    cap_lower: np.ndarray     # Cap(A ∩ Q) bounds over all bubbles
    cap_upper: np.ndarray
    uncovered: np.ndarray     # bubbles that meet no cube, ascending
    warnings: tuple           # the hypotheses the sums cannot certify


def _cube_factors(inc: CubeIncidence, config: BubbleConfig, consts: Constants) -> _CubeFactors:
    """Factors shared by every boundary point, computed on first use and kept
    in the incidence for these constants."""
    key = ("criteria", config, consts)
    if key not in inc.derived:
        inc.derived[key] = _build_cube_factors(inc, config, consts)
    return inc.derived[key]


def _build_cube_factors(
    inc: CubeIncidence, config: BubbleConfig, consts: Constants
) -> _CubeFactors:
    """Per-cube and per-pair factors of the criteria sums.

    The lower bound of a pair comes from the largest ball inscribed in the
    bubble-cube intersection: a bubble whose center lies strictly inside
    the cube contributes min(r, distance of the center to the cube faces).
    """
    d = config.dimension
    lo, hi = inc.boxes()
    g_lower, g_upper = capped_green_bounds(inc.domain, consts, 0.5 * (lo + hi))
    radii = config.radii[inc.ball]
    _, pair_upper = capacity_ball_bounds(consts, radii, d)
    c = config.centers[inc.ball]
    face = np.minimum((c - lo[inc.cube]).min(axis=1), (hi[inc.cube] - c).min(axis=1))
    rho = np.minimum(radii, face)
    pair_lower = np.zeros(rho.size)
    inside = rho > 0.0
    pair_lower[inside] = capacity_ball_bounds(consts, rho[inside], d)[0]
    first_order, cap_lower, cap_upper = _cap_bounds(inc.cube, pair_lower, pair_upper)
    by_pos = np.argsort(first_order)
    warnings = []
    r_thresh = small_radius_threshold(consts, d)
    n_big = int((config.radii > r_thresh).sum()) if config.n else 0
    if n_big:
        warnings.append(
            f"{n_big} bubbles exceed the small-radius threshold {r_thresh:.4g}; "
            "capacity quasi-additivity hypotheses are not certified"
        )
    uncovered = inc.uncovered()
    if uncovered.size:
        warnings.append(
            f"{uncovered.size} bubbles lie below the Whitney coverage collar; "
            "their contribution needs a tail estimate"
        )
    return _CubeFactors(
        lo, hi, _pow_each(inc.dist_boundary, 2.0 * (consts.alpha - 1.0)), g_lower, g_upper,
        pair_lower, pair_upper, first_order, cap_lower[by_pos], cap_upper[by_pos],
        uncovered, tuple(warnings),
    )


def _green_weighted_total(f: _CubeFactors, pos, cap_lower, cap_upper) -> tuple[float, float]:
    """sum_Q g(Q)^2 * Cap(A ∩ Q) over the cubes at ``pos``, in that order."""
    gl, gu = f.g_lower[pos], f.g_upper[pos]
    return _total(gl * gl * cap_lower), _total(gu * gu * cap_upper)


@dataclass(frozen=True)
class AikawaTrace:
    cube_ids: np.ndarray     # the incidence's cube numbers, ascending
    term_lower: np.ndarray   # per cube, following cube_ids
    term_upper: np.ndarray
    total: tuple[float, float]
    uncovered_bubbles: np.ndarray
    warnings: list


def aikawa_sum(
    inc: CubeIncidence, config: BubbleConfig, z, consts: Constants
) -> AikawaTrace:
    """Cube-indexed thinness sum at boundary point z:

    sum_j dist(Q_j, boundary)^(2(a-1)) / dist(z, Q_j)^(d+a-2) * Cap(A ∩ Q_j)

    evaluated as (lower, upper) bounds over the cubes of ``inc``, the
    cube-bubble incidence of ``config``.  Bubbles below the incidence's
    coverage collar are reported, not silently dropped.
    """
    _check_incidence(inc, config)
    z = np.asarray(z, dtype=float)
    dom = inc.domain
    dist_z = abs(float(np.sqrt(((z - dom.center) ** 2).sum())) - dom.radius)
    if dist_z > 1e-9:
        raise ValueError("z must lie on the boundary sphere")
    a = consts.alpha
    d = config.dimension
    f = _cube_factors(inc, config, consts)
    nearest = np.clip(z, f.lo, f.hi)
    dzq = np.sqrt(((z - nearest) ** 2).sum(axis=1))
    w = f.dist_weight / _pow_each(dzq, d + a - 2.0)
    lower, upper = f.cap_lower * w, f.cap_upper * w
    check_bounds(lower, upper)
    total = _total(lower), _total(upper)
    check_bounds(*total)
    return AikawaTrace(np.arange(lower.size), lower, upper, total, f.uncovered, list(f.warnings))


@dataclass(frozen=True)
class WienerTrace:
    shells: np.ndarray              # dyadic shell indices n, ascending
    term_lower: np.ndarray          # per shell, following shells
    term_upper: np.ndarray
    total: tuple[float, float]
    truncated_shells: np.ndarray    # shells overlapping the coverage collar


def wiener_dyadic_sum(
    inc: CubeIncidence,
    config: BubbleConfig,
    z,
    consts: Constants,
    n_max: int = 30,
) -> WienerTrace:
    """Dyadic-shell thinness sum at z: per shell n the contribution
    2^(n(d+a-2)) * sum_j g(x_j)^2 * Cap(E_n ∩ Q_j) as (lower, upper) bounds.

    Bubbles are assigned to shells by center distance; bubbles at distance
    >= 1/2 from z are in no shell.  Each shell takes its pairs from ``inc``,
    the cube-bubble incidence of ``config``.  Shells reaching below the
    incidence's coverage collar are flagged as truncated.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_incidence(inc, config)
    z = np.asarray(z, dtype=float)
    a = consts.alpha
    d = config.dimension
    shells = np.empty(0, dtype=np.int64)
    terms = np.zeros((0, 2))
    if config.n:
        dist = np.sqrt(((config.centers - z) ** 2).sum(axis=1))
        shell_n = np.ceil(-np.log2(dist)).astype(int) - 1
        shells = np.unique(shell_n[(shell_n >= 1) & (shell_n <= n_max)]).astype(np.int64)
        f = _cube_factors(inc, config, consts)
        pair_shell = shell_n[inc.ball]
        terms = np.zeros((shells.size, 2))
        for j, n in enumerate(shells.tolist()):
            keep = pair_shell == n
            pos, cap_lower, cap_upper = _cap_bounds(
                inc.cube[keep], f.pair_lower[keep], f.pair_upper[keep]
            )
            terms[j] = _green_weighted_total(f, pos, cap_lower, cap_upper)
            terms[j] *= 2.0 ** (n * (d + a - 2.0))
    lower, upper = terms.T
    check_bounds(lower, upper)
    total = _total(lower), _total(upper)
    check_bounds(*total)
    truncated = shells[2.0 ** (-shells.astype(float)) <= 2.0 * inc.coverage_threshold]
    return WienerTrace(shells, lower, upper, total, truncated)


def quasi_additivity_interval(
    inc: CubeIncidence, config: BubbleConfig, consts: Constants
) -> tuple[float, float]:
    """Ratio interval for sum_j gamma_g(A ∩ Q_j) versus the per-bubble energy
    sum, both as (lower, upper) bounds: the surrogate for capacity
    quasi-additivity over the Whitney cubes of ``inc``, the cube-bubble
    incidence of ``config``.  Reported, not asserted against any constant.
    """
    if config.n == 0:
        raise ValueError("quasi-additivity ratio needs a nonempty configuration")
    _check_incidence(inc, config)
    f = _cube_factors(inc, config, consts)
    pos = f.first_order
    num = _green_weighted_total(f, pos, f.cap_lower[pos], f.cap_upper[pos])
    gl, gu = capped_green_bounds(inc.domain, consts, config.centers)
    cl, cu = capacity_ball_bounds(consts, config.radii, config.dimension)
    den = _total(gl * gl * cl), _total(gu * gu * cu)
    if den[0] == 0.0 or num[0] == 0.0:
        raise ValueError("degenerate bounds; decomposition too shallow for this config")
    ratio = num[0] / den[1], num[1] / den[0]
    check_bounds(*ratio)
    return ratio


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

    totals = np.array([avoidability_series(config, z, alpha).total for z in points])
    separation = separation_infimum(config, alpha)
    if verdict.tag == Verdict.DIVERGENT and separation > 0.0:
        aggregate = "unavoidable"
    elif verdict.tag == Verdict.CONVERGENT:
        aggregate = "avoidable-candidate"
    else:
        aggregate = "inconclusive"
    return AvoidabilityReport(verdict, totals, separation, aggregate, notes)
