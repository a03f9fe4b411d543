"""The stable sampler that the tabulated radial law replaced, kept as the law's
oracle: xi = sqrt(2S) Z, with S positive (alpha/2)-stable by Kanter's method
and Z standard normal by Box-Muller, on the counter streams.  A step took
2 + 2 * ceil(d/2) slots: S's uniform and exponential in slots 0 and 1, then
one (radius, angle) pair of uniforms per pair of normals.
"""

from __future__ import annotations

import numpy as np

from champagne.rng import stream_keys, uniform01


def positive_stable(rho: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter sampler for the positive rho-stable law, rho in (0, 1).

    With u ~ U(0,1) and w ~ Exp(1) the output S satisfies
    E[exp(-lam*S)] = exp(-lam**rho).  With theta = pi*u and q = (1-rho)/rho,
    S = sin(rho theta) * sin((1-rho) theta)**q / sin(theta)**(1/rho) / w**q:
    Kanter's (A/w)**q with the power taken factor by factor, because A/w
    itself overflows at u near 1 and w near 0 for rho near 1, where S is
    finite.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    q = (1.0 - rho) / rho
    theta = np.pi * u
    s = rho * theta
    np.sin(s, out=s)
    t = (1.0 - rho) * theta
    np.sin(t, out=t)
    t **= q
    s *= t
    np.sin(theta, out=theta)
    theta **= 1.0 / rho
    s /= theta
    del theta
    np.power(w, q, out=t)
    s /= t
    return s


def standard_normals(keys: np.ndarray, base_counter, d: int) -> np.ndarray:
    """(n, d) standard normals via Box-Muller on counter slots: one row per
    element of keys + base_counter broadcast together, in C order."""
    n = np.broadcast(keys, base_counter).size
    pairs = (d + 1) // 2
    out = np.empty((n, 2 * pairs))
    for p in range(pairs):
        r = uniform01(keys, base_counter + np.uint64(2 * p)).ravel()
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        ang = uniform01(keys, base_counter + np.uint64(2 * p + 1)).ravel()
        ang *= 2.0 * np.pi
        out[:, 2 * p] = np.cos(ang)
        out[:, 2 * p] *= r
        np.sin(ang, out=ang)
        ang *= r
        out[:, 2 * p + 1] = ang
    return out[:, :d]


def kanter_vectors(alpha: float, d: int, keys: np.ndarray, step: int = 0) -> np.ndarray:
    """The replaced sampler's increments of the given keys at one step."""
    base = np.uint64(step) * np.uint64(2 + 2 * ((d + 1) // 2))
    w = uniform01(keys, base + np.uint64(1))
    np.log(w, out=w)
    np.negative(w, out=w)
    s = positive_stable(alpha / 2.0, uniform01(keys, base), w)
    s *= 2.0
    np.sqrt(s, out=s)
    z = standard_normals(keys, base + np.uint64(2), d)
    z *= s[:, None]
    return z


def kanter_median(d: int, alpha: float, n: int = 1 << 16) -> float:
    """The replaced estimate of median |xi|: the n draws of step 0 on the
    fixed stream of seed 0x5CA1AB1E."""
    xi = kanter_vectors(alpha, d, stream_keys(0x5CA1AB1E, np.arange(n)))
    return float(np.median(np.sqrt((xi * xi).sum(axis=1))))
