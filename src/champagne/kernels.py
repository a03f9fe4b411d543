"""Two-sided comparison bounds for the potential-theoretic kernels.

No closed form exists for the Green function or the capacity of the censored
stable process; they are known only up to multiplicative constants.  The
honest output type is therefore an interval, given as a (lower, upper) pair
of floats or of arrays.  With all comparison constants set to 1 (the default
"comparison-function mode") the two bounds collapse to the comparison
functions themselves, which is what every divergence classification actually
consumes.

Memory.  The powers go through Python floats _POW_BLOCK values at a time, so
beside its result a call holds one block of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BallDomain, dist_to_boundary

__all__ = [
    "Constants",
    "check_bounds",
    "unit_ball_volume",
    "capped_green_bounds",
    "capacity_ball_bounds",
    "small_radius_threshold",
]

# values that _pow_each raises at a time through Python floats
_POW_BLOCK = 1 << 12


@dataclass(frozen=True)
class Constants:
    """Comparison constants entering the two-sided kernel estimates.

    alpha is the stability index, strictly inside (1, 2).  All comparison
    constants are >= 1; the defaults give comparison-function mode.
    """

    alpha: float
    C_G: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie strictly inside (1, 2)")
        for name in ("C_G", "C"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be >= 1")

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "C_G": self.C_G,
            "C": self.C,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Constants":
        return cls(**{k: float(v) for k, v in obj.items()})


def check_bounds(lower, upper) -> None:
    """Raise ValueError unless 0 <= lower <= upper holds elementwise with no
    NaN, for floats or arrays of (lower, upper) bounds."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("bounds must not be NaN")
    bad = ~((0.0 <= lower) & (lower <= upper))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"need 0 <= lower <= upper, got [{lower.flat[i]}, {upper.flat[i]}]")


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _pow_each(x, p: float) -> np.ndarray:
    """x**p element by element through the C library pow, as Python's float
    power computes it.  numpy's vectorized power can differ from it in the
    last bit, which would change the criteria outputs."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat, dst = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _POW_BLOCK):
        dst[start:start + _POW_BLOCK] = [v ** p for v in flat[start:start + _POW_BLOCK].tolist()]
    return out


def capped_green_bounds(
    domain: BallDomain, consts: Constants, y
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds for g(y) = G(y, x0) ∧ 1 in the near-boundary regime, where
    g(y) is comparable to delta(y)^(a-1), over points y (n, d) inside the
    domain, as (lower, upper) arrays.

    The single comparison factor is C_G * 2**(d+1); it cancels in every
    divergence classification.  Both bounds are capped at 1 since g <= 1 by
    definition.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(domain.contains(y)):
        raise ValueError("capped_green_bounds requires y inside the domain")
    c = consts.C_G * 2.0 ** (domain.dimension + 1)
    base = _pow_each(dist_to_boundary(domain, y), consts.alpha - 1.0)
    return np.minimum(base / c, 1.0), np.minimum(base * c, 1.0)


def capacity_ball_bounds(consts: Constants, r, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [C^-1 r^(d-a), C r^(d-a)] for the capacity of each ball of
    radius r well inside the domain (caller attests B(x, 2r) ⊂ D), as
    (lower, upper) arrays."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be > 0")
    f = _pow_each(r, d - consts.alpha)
    return f / consts.C, f * consts.C


def small_radius_threshold(consts: Constants, d: int) -> float:
    """Largest r with 16r <= eta_lower(r): (16^d * C * sigma_d)^(-1/alpha).

    eta_lower(r) = (C * sigma_d)^(-1/d) * r^(1 - alpha/d) is the lower bound
    on the radius of the ball whose volume equals the capacity of B(x, r).
    """
    return (16.0 ** d * consts.C * unit_ball_volume(d)) ** (-1.0 / consts.alpha)
