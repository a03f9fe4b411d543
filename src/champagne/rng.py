"""Counter-based random streams and isotropic stable increment sampling.

Every uniform is a pure function of (seed, trajectory, step, slot).  The
generator is the SplitMix64 finalizer applied to a Weyl sequence, one
independent key per trajectory.  The floats made from the uniforms also
depend on numpy's SIMD dispatch: np.log and the power operator run numpy's
own vectorised loops, chosen when numpy loads for the CPU's instruction
sets, and these need not round like the C library.  On an AVX-512 host,
np.log and np.power differ from it by one unit in the last place for about
0.3 % and 5 % of uniform float64 inputs in (0, 1).  So on one host, with
one numpy build, a draw is a function of (seed, trajectory, step, slot)
alone, and trajectories are reproducible independently of batching, of how
they are split between worker processes, and of evaluation order; another
CPU or numpy build may change the last bits of a draw.

Isotropic alpha-stable vectors are sampled by Gaussian subordination: a
positive (alpha/2)-stable variable S (Kanter's method) times independent
normals, giving the characteristic function exp(-|u|^alpha).  Increments over
time h are then h^(1/alpha) times a standardized increment, which makes the
self-similar scaling law exact by construction.

The shell generator draws from the same streams, under shells.seed: shell
i takes counters 0, 1 and 2 of trajectory id 2**63 + i.  The simulator's
trajectory ids lie below n_traj, so no generator key is a simulator key for
the same seed.  The seed of every stream lies in [0, 2**64).

The uniforms lie in [2**-54, 1 - 2**-53], so w = -log u > 0, and every
alpha in (1, 2) draws finitely: Kanter's S raises each of its factors to
its own power before they are multiplied (see ``positive_stable``), so no
intermediate overflows or underflows at the extreme uniforms.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mix64",
    "stream_keys",
    "uniform01",
    "positive_stable",
    "standard_normals",
    "stable_vectors",
    "slots_per_step",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_SALT = np.uint64(0xA0761D6478BD642F)
_LAST_U = 1.0 - 2.0**-53   # the greatest uniform


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """``mix64`` that overwrites x, with one scratch array for the shifts."""
    t = np.right_shift(x, np.uint64(30), out=np.empty_like(x))
    x ^= t
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def stream_keys(seed: int, traj_ids) -> np.ndarray:
    """Independent 64-bit keys for the given trajectory indices; ValueError
    unless the seed is an int in [0, 2**64), whose streams are all distinct."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a non-negative integer below 2**64, got {seed!r}")
    traj = np.asarray(traj_ids, dtype=np.uint64)
    base = mix64(np.uint64(seed) ^ _SEED_SALT)
    return _mix64_inplace(base + traj * _GOLD)


def uniform01(keys, counters) -> np.ndarray:
    """Uniforms in [2**-54, 1 - 2**-53], one per (key, counter) pair: (r + 1/2)
    * 2**-53 rounded to nearest for the top 53 bits r of the mixed counter,
    except that r = 2**53 - 1, which this rounds up to 1, gives 1 - 2**-53."""
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    raw = _mix64_inplace(np.asarray(keys + counters * _GOLD))  # 0-d stays an array
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, _LAST_U, out=u)
    return u[()]  # a scalar for scalar inputs


def slots_per_step(d: int) -> int:
    """Draws consumed per step: 2 for the subordinator, 2 per normal pair."""
    return 2 + 2 * ((d + 1) // 2)


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


def stable_vectors(alpha: float, d: int, keys: np.ndarray, step: int,
                   n_steps: int = 1) -> np.ndarray:
    """Standardized isotropic alpha-stable increments for the block of steps
    step, ..., step + n_steps - 1: (n_steps * m, d) rows for m keys, step-major,
    so row s*m + i is the increment of keys[i] at step step + s.

    Characteristic function exp(-|u|^alpha); the time-h increment is
    h**(1/alpha) times this.  Each row is a function of its key and step
    alone, so a block equals its steps drawn one at a time, bit for bit.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    nslots = np.uint64(slots_per_step(d))
    # one counter base per step, a column that broadcasts against the keys
    base = np.arange(step, step + n_steps, dtype=np.uint64)[:, None] * nslots
    w = uniform01(keys, base + np.uint64(1)).ravel()
    np.log(w, out=w)
    np.negative(w, out=w)
    s = positive_stable(alpha / 2.0, uniform01(keys, base).ravel(), w)
    del w
    s *= 2.0
    np.sqrt(s, out=s)
    z = standard_normals(keys, base + np.uint64(2), d)
    z *= s[:, None]
    return z

