"""Two-sided comparison envelopes for the potential-theoretic kernels.

No closed form exists for the Green function, Martin kernel, or capacity of
the censored stable process; they are known only up to multiplicative
constants.  The honest output type is therefore an interval, and every
function here returns an :class:`Envelope`.  With all comparison constants
set to 1 (the default "comparison-function mode") the envelopes collapse to
the comparison functions themselves, which is what every divergence
classification actually consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import BallDomain, dist_to_boundary
from .whitney import WhitneyCube

__all__ = [
    "Constants",
    "Envelope",
    "WeightChoice",
    "unit_ball_volume",
    "green_envelope",
    "martin_envelope",
    "capped_green_envelope",
    "capped_green_bounds",
    "capacity_ball_envelope",
    "capacity_ball_bounds",
    "EtaRadii",
    "capacity_equivalent_radii",
    "small_radius_threshold",
    "comparable_measure_cube",
]


class SingularityError(ValueError):
    """Kernel evaluated on its diagonal."""


@dataclass(frozen=True)
class Constants:
    """Comparison constants entering the two-sided kernel estimates.

    alpha is the stability index, strictly inside (1, 2).  All comparison
    constants are >= 1; the defaults give comparison-function mode.
    """

    alpha: float
    C_G: float = 1.0
    C_M: float = 1.0
    C: float = 1.0
    C_H: float = 1.0
    C_1: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie strictly inside (1, 2)")
        for name in ("C_G", "C_M", "C", "C_H", "C_1"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be >= 1")

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "C_G": self.C_G,
            "C_M": self.C_M,
            "C": self.C,
            "C_H": self.C_H,
            "C_1": self.C_1,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Constants":
        return cls(**{k: float(v) for k, v in obj.items()})


@dataclass(frozen=True)
class Envelope:
    """Interval [lower, upper] for a quantity known up to two-sided constants."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("envelope bounds must not be NaN")
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]")

    def __add__(self, other):
        if isinstance(other, Envelope):
            return Envelope(self.lower + other.lower, self.upper + other.upper)
        if other == 0:  # sum() support
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Envelope):
            # both envelopes are nonnegative by invariant
            return Envelope(self.lower * other.lower, self.upper * other.upper)
        s = float(other)
        if s < 0:
            raise ValueError("scalar factors must be nonnegative")
        return Envelope(self.lower * s, self.upper * s)

    __rmul__ = __mul__

    def scaled(self, s: float) -> "Envelope":
        return self * s

    def squared(self) -> "Envelope":
        return Envelope(self.lower * self.lower, self.upper * self.upper)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @staticmethod
    def zero() -> "Envelope":
        return Envelope(0.0, 0.0)

    @staticmethod
    def point(value: float) -> "Envelope":
        return Envelope(value, value)

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper}


@dataclass(frozen=True)
class WeightChoice:
    """Weight u in the comparable measure: u == 1 or the capped Green function
    based at a fixed interior point."""

    tag: str  # "one" | "green_at_base"
    base_point: np.ndarray | None = None

    def __post_init__(self):
        if self.tag not in ("one", "green_at_base"):
            raise ValueError(f"unknown weight tag {self.tag!r}")
        if self.tag == "green_at_base":
            if self.base_point is None:
                raise ValueError("green_at_base weight needs a base point")
            object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float))

    @staticmethod
    def one() -> "WeightChoice":
        return WeightChoice("one")

    @staticmethod
    def green_at_base(x0) -> "WeightChoice":
        return WeightChoice("green_at_base", np.asarray(x0, dtype=float))


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def green_envelope(domain: BallDomain, consts: Constants, x, y) -> Envelope:
    """Two-sided envelope for the Green function G(x, y).

    Comparison function:
    (1 ∧ (delta(x)/|x-y|)^(a-1)) * (1 ∧ (delta(y)/|x-y|)^(a-1)) * |x-y|^(a-d).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (domain.contains(x) and domain.contains(y)):
        raise ValueError("green_envelope requires both points inside the domain")
    dxy = float(np.sqrt(((x - y) ** 2).sum()))
    if dxy == 0.0:
        raise SingularityError("Green kernel is singular on the diagonal x == y")
    a = consts.alpha
    d = domain.dimension
    fx = min(1.0, (dist_to_boundary(domain, x) / dxy) ** (a - 1.0))
    fy = min(1.0, (dist_to_boundary(domain, y) / dxy) ** (a - 1.0))
    f = fx * fy * dxy ** (a - d)
    return Envelope(f / consts.C_G, f * consts.C_G)


def _check_on_boundary(domain: BallDomain, z: np.ndarray, tol: float = 1e-9) -> None:
    dist = abs(float(np.sqrt(((z - domain.center) ** 2).sum())) - domain.radius)
    if dist > tol:
        raise ValueError(f"point not on the boundary sphere (off by {dist:.3e})")


def martin_envelope(domain: BallDomain, consts: Constants, x, z) -> Envelope:
    """Two-sided envelope for the Martin kernel at boundary point z:
    delta(x)^(a-1) / |x-z|^(d+a-2), up to C_M."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if not domain.contains(x):
        raise ValueError("martin_envelope requires x inside the domain")
    _check_on_boundary(domain, z)
    a = consts.alpha
    d = domain.dimension
    dxz = float(np.sqrt(((x - z) ** 2).sum()))
    f = dist_to_boundary(domain, x) ** (a - 1.0) / dxz ** (d + a - 2.0)
    return Envelope(f / consts.C_M, f * consts.C_M)


def capped_green_envelope(
    domain: BallDomain,
    consts: Constants,
    y,
    comparison_factor: float | None = None,
) -> Envelope:
    """Envelope for g(y) = G(y, x0) ∧ 1 in the near-boundary regime:
    g(y) is comparable to delta(y)^(a-1).

    The single comparison factor defaults to C_G * 2**(d+1); it cancels in
    every divergence classification, so its exact value is a reporting knob.
    Both bounds are capped at 1 since g <= 1 by definition.
    """
    y = np.asarray(y, dtype=float)
    if not domain.contains(y):
        raise ValueError("capped_green_envelope requires y inside the domain")
    d = domain.dimension
    c = consts.C_G * 2.0 ** (d + 1) if comparison_factor is None else float(comparison_factor)
    if c < 1.0:
        raise ValueError("comparison factor must be >= 1")
    base = dist_to_boundary(domain, y) ** (consts.alpha - 1.0)
    return Envelope(min(base / c, 1.0), min(base * c, 1.0))


def capacity_ball_envelope(consts: Constants, r: float, d: int) -> Envelope:
    """Envelope [C^-1 r^(d-a), C r^(d-a)] for the capacity of a ball of
    radius r well inside the domain (caller attests B(x, 2r) ⊂ D)."""
    if not r > 0:
        raise ValueError("radius must be > 0")
    f = r ** (d - consts.alpha)
    return Envelope(f / consts.C, f * consts.C)


def _pow_each(x, p: float) -> np.ndarray:
    """x**p element by element through the C library pow, as the scalar
    envelopes compute it.  numpy's vectorized power can differ from it in the
    last bit, which would change the criteria outputs."""
    return np.array([v ** p for v in np.asarray(x, dtype=float).tolist()], dtype=float)


def capped_green_bounds(
    domain: BallDomain, consts: Constants, y
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`capped_green_envelope` with the default comparison factor over
    a batch of points y (n, d), as (lower, upper) arrays."""
    y = np.asarray(y, dtype=float)
    if not np.all(domain.contains(y)):
        raise ValueError("capped_green_envelope requires y inside the domain")
    c = consts.C_G * 2.0 ** (domain.dimension + 1)
    base = _pow_each(dist_to_boundary(domain, y), consts.alpha - 1.0)
    return np.minimum(base / c, 1.0), np.minimum(base * c, 1.0)


def capacity_ball_bounds(consts: Constants, r, d: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`capacity_ball_envelope` over an array of radii, as (lower,
    upper) arrays."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be > 0")
    f = _pow_each(r, d - consts.alpha)
    return f / consts.C, f * consts.C


class EtaRadii(NamedTuple):
    lower: float
    upper: float
    star_lower: float
    star_upper: float


def capacity_equivalent_radii(consts: Constants, r: float, d: int) -> EtaRadii:
    """Radius eta whose ball volume equals the capacity of B(x, r), bounded
    two-sided, and eta* = max(eta, 16r) bounds.

    eta in [C^(-1/d), C^(1/d)] * sigma_d^(-1/d) * r^(1 - a/d).
    """
    if not r > 0:
        raise ValueError("radius must be > 0")
    sigma_d = unit_ball_volume(d)
    base = sigma_d ** (-1.0 / d) * r ** (1.0 - consts.alpha / d)
    lo = consts.C ** (-1.0 / d) * base
    hi = consts.C ** (1.0 / d) * base
    return EtaRadii(lo, hi, max(lo, 16.0 * r), max(hi, 16.0 * r))


def small_radius_threshold(consts: Constants, d: int) -> float:
    """Largest r with 16r <= eta_lower(r): (16^d * C * sigma_d)^(-1/alpha)."""
    return (16.0 ** d * consts.C * unit_ball_volume(d)) ** (-1.0 / consts.alpha)


def _weight_envelope_values(
    domain: BallDomain, consts: Constants, u: WeightChoice, pts: np.ndarray
):
    if u.tag == "one":
        ones = np.ones(pts.shape[0])
        return ones, ones
    d = domain.dimension
    c = consts.C_G * 2.0 ** (d + 1)
    base = dist_to_boundary(domain, pts) ** (consts.alpha - 1.0)
    return np.minimum(base / c, 1.0), np.minimum(base * c, 1.0)


def comparable_measure_cube(
    domain: BallDomain,
    consts: Constants,
    u: WeightChoice,
    cube: WhitneyCube,
    quad_points: int = 64,
) -> Envelope:
    """Envelope for the comparable-measure mass of one Whitney cube:
    integral over Q of u(x)^2 * delta(x)^(-alpha) dx.

    Tensor midpoint rule with doubling refinement until the relative change
    drops below 1e-4 or the per-axis point budget ``quad_points`` is reached.
    The integrand is smooth on a Whitney cube (cubes stay away from the
    boundary), so the midpoint rule converges fast.
    """
    if quad_points < 2:
        raise ValueError("quad_points must be >= 2")
    lo, hi = cube.bounds()
    far = np.maximum(hi - domain.center, domain.center - lo)
    if not np.sqrt((far * far).sum()) < domain.radius:
        raise ValueError("cube not inside the domain")
    d = domain.dimension

    def evaluate(n: int) -> tuple[float, float]:
        axes = [lo[i] + (np.arange(n) + 0.5) * (hi[i] - lo[i]) / n for i in range(d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        w = float(np.prod((hi - lo) / n))
        dd = dist_to_boundary(domain, pts) ** (-consts.alpha)
        ul, uu = _weight_envelope_values(domain, consts, u, pts)
        return w * float((ul * ul * dd).sum()), w * float((uu * uu * dd).sum())

    n = 2
    lo_val, hi_val = evaluate(n)
    while 2 * n <= quad_points:
        n *= 2
        new_lo, new_hi = evaluate(n)
        done = (
            abs(new_lo - lo_val) <= 1e-4 * max(new_lo, 1e-300)
            and abs(new_hi - hi_val) <= 1e-4 * max(new_hi, 1e-300)
        )
        lo_val, hi_val = new_lo, new_hi
        if done:
            break
    return Envelope(min(lo_val, hi_val), max(lo_val, hi_val))
