"""Comparison functions for the potential-theoretic kernels.

No closed form exists for the Green function or the capacity of the censored
stable process.  The criteria use the functions that they are compared with:
delta(y)^(a-1) ∧ 1 for the capped Green function G(y, x0) ∧ 1 near the
boundary, and r^(d-a) for the capacity of a ball of radius r.  Each
comparison holds only up to a multiplicative constant that depends on d and
a, and neither the paper nor its Brownian model (Gardiner & Ghergu, Ann.
Acad. Sci. Fenn. 35, 2010) gives one.  None is modelled here: a made-up
constant would only widen every interval without carrying information, and a
fixed factor cancels in every divergence classification.  The (lower, upper)
bounds that the criteria report therefore come from geometry alone (see
``criteria``).

Memory.  The powers go through Python floats _POW_BLOCK values at a time, so
beside its result a call holds one block of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_bounds",
    "unit_ball_volume",
    "capped_green",
    "ball_capacity",
    "small_radius_threshold",
]

# values that _pow_each raises at a time through Python floats
_POW_BLOCK = 1 << 12


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


def capped_green(alpha: float, delta) -> np.ndarray:
    """The comparison function min(delta^(a-1), 1) of g(y) = G(y, x0) ∧ 1
    in the near-boundary regime, from the distances delta(y) > 0 of points
    y inside the domain to its boundary."""
    delta = np.asarray(delta, dtype=float)
    if not np.all(delta > 0):
        raise ValueError("capped_green requires y inside the domain: delta(y) > 0")
    return np.minimum(_pow_each(delta, alpha - 1.0), 1.0)


def ball_capacity(alpha: float, r, d: int) -> np.ndarray:
    """The comparison function r^(d-a) of the capacity of each ball of
    radius r well inside the domain (caller attests B(x, 2r) ⊂ D)."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be > 0")
    return _pow_each(r, d - alpha)


def small_radius_threshold(alpha: float, d: int) -> float:
    """Largest r with 16r <= eta(r): (16^d * sigma_d)^(-1/alpha).

    eta(r) = sigma_d^(-1/d) * r^(1 - alpha/d) is the radius of the ball
    whose volume equals the capacity r^(d-a) of B(x, r).
    """
    return (16.0 ** d * unit_ball_volume(d)) ** (-1.0 / alpha)
