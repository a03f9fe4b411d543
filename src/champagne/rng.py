"""Counter-based random streams and isotropic stable increment sampling.

Every uniform is a pure function of (seed, trajectory, step, slot).  The
generator is the SplitMix64 finalizer applied to a Weyl sequence, one
independent key per trajectory.  The uniforms lie in [2**-54, 1 - 2**-53].

The shell generator draws from the same streams, under shells.seed: shell
i takes counters 0, 1 and 2 of trajectory id 2**63 + i.  The simulator's
trajectory ids lie below n_traj, so no generator key is a simulator key for
the same seed.  The seed of every stream lies in [0, 2**64).

Isotropic alpha-stable increments, with characteristic function
exp(-|u|^alpha), are drawn as xi = R * Theta: a radius R = |xi| from its
law and an independent uniform direction Theta.  A trajectory takes d
slots a step: slot 0 gives R, slot 1 the direction in d=2, and slots 1 and
2 in d=3.

R comes from one uniform u by inverting a table of its distribution
function F, built once per (d, alpha) by ``radial_law``.  The table holds
log R as a piecewise cubic in x = log(u)/d - log(1 - u)/alpha.  Beyond its
ends log R continues with slope 1 in x: below, the small-r law
F = c0 r^d, and above, the Pareto tail 1 - F = C r^-alpha with
C = 2^alpha Gamma((d+alpha)/2) / (Gamma(d/2) Gamma(1 - alpha/2)).  So every
u in (0, 1), the extreme uniforms included, gives a finite positive R, and
|F(R) - u| < 1e-8 (tests/test_stable_law.py).  The table's R at u = 1/2 is
the median of |xi|, from which the simulator takes its step constant.

F itself comes from the subordination xi = sqrt(2S) Z, with S positive
(alpha/2)-stable and Z standard normal, so R^2/4 = S * (|Z|^2 / 2).  The
Mellin transforms of both factors are ratios of Gamma functions, so
T = log(R^2/4) has the characteristic function
Gamma(d/2 + it) Gamma(1 - 2it/alpha) / (Gamma(d/2) Gamma(1 - it)), and
F and its density are single Fourier integrals of it (Gil-Pelaez), summed
with the midpoint rule on a uniform grid of log r.

The direction takes sin and cos on a quarter turn only, then rotates by
whole quarter turns, which is exact: in d=2 the angle is 2 pi v; in d=3
the height 1 - 2w is uniform on [-1, 1] (Archimedes) and the azimuth is
drawn as in d=2.

What still depends on the host: np.log and np.exp in the draw run numpy's
own SIMD loops, chosen when numpy loads for the CPU's instruction sets, and
these need not round like the C library; so do the complex products and
sums of the table's Fourier integrals, so the table and its median may
move in their last bits too.  np.sin and np.cos of float64 matched the C
library bit for bit on an AVX-512 host.  So on one host, with one numpy
build, a draw is a function of (seed, trajectory, step, slot) alone, and
trajectories are reproducible independently of batching, of how they are
split between worker processes, and of evaluation order; another CPU or
numpy build may change the last bits of a draw.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "mix64",
    "stream_keys",
    "uniform01",
    "radial_law",
    "stable_vectors",
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


# the table of the radial law: it starts where F = 1e-7 under the small-r
# law and ends where 1 - F = 1e-8 under the Pareto tail, where those laws
# are off by well under 1e-9 in F; each end has half a unit of log r to spare
_F_LO, _TAIL_HI, _SPARE = 1e-7, 1e-8, 0.5
# spacing in log r of the exact values of F, and in x of the cubic pieces;
# both set the interpolation error, which is largest near alpha = 2
_LOG_R_STEP = _X_STEP = 0.015
# rows of the Fourier sum per block, which holds complex arrays of
# _ROWS x 2 x (130-290) values
_ROWS = 16
# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma of complex z with Re z > 0, up to multiples of 2 pi i:
    Stirling's series at z + 8, carried back by Gamma(z + 1) = z Gamma(z)."""
    w = z.copy()
    back = np.zeros_like(z)
    for _ in range(8):
        back += np.log(w)
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    series = np.zeros_like(z)
    for c in reversed(_STIRLING):
        series *= inv2
        series += c
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series * inv - back


def _radial_cdf(d: int, alpha: float, log_r0: float, n: int):
    """F(r) and r F'(r) of R = |xi| at log r = log_r0 + k * _LOG_R_STEP, k < n.

    T = log(R^2/4) has the characteristic function phi(t) =
    Gamma(d/2 + it) Gamma(1 - it/rho) / (Gamma(d/2) Gamma(1 - it)), rho =
    alpha/2, so P(T <= tau) = 1/2 - (1/pi) int_0^inf Im(e^(-it tau) phi(t))/t dt
    and its density is (1/pi) int_0^inf Re(e^(-it tau) phi(t)) dt.  Both are
    midpoint sums over t.  |phi(t)| falls like e^(-pi t/alpha), so the sums
    stop where it is below e^-34; a step h replaces the law by its
    wrap-around at period 4 pi/h in tau, so h is chosen to put the grid and
    15 units of tau on either side inside one half period.  The grid's rows
    are summed _ROWS at a time: the block starting at tau_s takes
    e^(-it (tau_s + j step)) = e^(-it j step) e^(-it tau_s).
    """
    step = 2.0 * _LOG_R_STEP
    tau0 = 2.0 * log_r0 - math.log(4.0)
    h = 2.0 * math.pi / (step * n + 30.0)
    t = (np.arange(int(34.0 * alpha / (math.pi * h)) + 1) + 0.5) * h
    m = t.size
    lg = _log_gamma(np.concatenate([d / 2.0 + 1j * t, 1.0 - 2j / alpha * t, 1.0 - 1j * t]))
    phi = np.exp(lg[:m] + lg[m:2 * m] - lg[2 * m:] - math.lgamma(d / 2.0))
    # the CDF's weights phi/t and the density's phi, one row each
    weights = np.stack([phi / t, phi])
    rows = np.exp(np.outer(np.arange(_ROWS) * step, -1j * t))[:, None, :]
    sums = np.empty((n, 2), dtype=complex)
    for start in range(0, n, _ROWS):
        k = min(_ROWS, n - start)
        shifted = weights * np.exp((tau0 + start * step) * -1j * t)
        sums[start:start + k] = (rows[:k] * shifted).sum(axis=2)
    cdf = 0.5 - (h / math.pi) * sums[:, 0].imag
    dens = (2.0 * h / math.pi) * sums[:, 1].real   # dF/dlog r = 2 dF/dT
    return cdf, dens


def _hermite(x: np.ndarray, y: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """(4, n - 1) coefficients of the cubic on each [x_j, x_j+1] that takes
    the values y and slopes dy/dx at both ends, in t = (x - x_j)/(x_j+1 - x_j):
    y = c0 + t (c1 + t (c2 + t c3))."""
    dx = np.diff(x)
    dy = np.diff(y)
    m0, m1 = slope[:-1] * dx, slope[1:] * dx
    return np.stack([y[:-1], m0, 3.0 * dy - 2.0 * m0 - m1, m0 + m1 - 2.0 * dy])


class RadialLaw:
    """The law of R = |xi| for a standardized isotropic alpha-stable xi in
    R^d, tabulated for inverse-CDF sampling (see the module docstring)."""

    def __init__(self, d: int, alpha: float):
        log2 = math.log(2.0)
        # F ~ c0 r^d at 0, and 1 - F ~ C r^-alpha at infinity
        log_c0 = ((1 - d) * log2 + math.lgamma(d / alpha) - math.log(alpha)
                  - math.lgamma(d / 2.0) - math.lgamma(d / 2.0 + 1.0))
        log_tail = (alpha * log2 + math.lgamma((d + alpha) / 2.0) - math.lgamma(d / 2.0)
                    - math.lgamma(1.0 - alpha / 2.0))
        lo = (math.log(_F_LO) - log_c0) / d - _SPARE
        hi = (log_tail - math.log(_TAIL_HI)) / alpha + _SPARE
        n = int((hi - lo) / _LOG_R_STEP) + 1
        log_r = lo + _LOG_R_STEP * np.arange(n)
        cdf, dens = _radial_cdf(d, alpha, lo, n)
        upper = 1.0 - cdf
        if not (cdf[0] > 0.0 and upper[-1] > 0.0 and (np.diff(cdf) > 0.0).all()):
            raise FloatingPointError(f"d={d}, alpha={alpha}: the tabulated CDF is not increasing")
        # x(F) and dlog r/dx at the exact values, then the cubic through them
        x = np.log(cdf) / d - np.log(upper) / alpha
        exact = _hermite(x, log_r, 1.0 / (dens * (1.0 / (d * cdf) + 1.0 / (alpha * upper))))
        # log R and dlog R/dx on a uniform grid of x, the cubic's values there
        pieces = int((x[-1] - x[0]) / _X_STEP)
        grid = x[0] + _X_STEP * np.arange(pieces + 1)
        j = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, n - 2)
        width = x[j + 1] - x[j]
        t = (grid - x[j]) / width
        c0, c1, c2, c3 = exact[:, j]
        value = c0 + t * (c1 + t * (c2 + t * c3))
        slope = (c1 + t * (2.0 * c2 + 3.0 * t * c3)) / width
        # the ends take the small-r and tail laws' constants exactly
        value[0], value[-1] = grid[0] - log_c0 / d, grid[-1] + log_tail / alpha
        slope[0] = slope[-1] = 1.0
        self.d, self.alpha = d, alpha
        self._x0, self._x1, self._pieces = float(grid[0]), float(grid[-1]), pieces
        self._coef = _hermite(grid, value, slope)
        self.median = float(self.radii(np.array([0.5]))[0])

    def radii(self, u: np.ndarray) -> np.ndarray:
        """R for each uniform of the float array u, which this overwrites and
        returns: log R is the table's cubic at x(u), with x clamped to the
        table and slope 1 beyond its ends."""
        x = np.subtract(1.0, u)
        np.log(x, out=x)
        x *= -1.0 / self.alpha
        np.log(u, out=u)
        u *= 1.0 / self.d
        u += x                                    # x(u)
        np.clip(u, self._x0, self._x1, out=x)
        u -= x                                    # 0 on the table
        x -= self._x0
        x *= 1.0 / _X_STEP
        i = x.astype(np.intp)
        np.minimum(i, self._pieces - 1, out=i)    # x1 ends the last piece
        x -= i                                    # t in [0, 1]
        c0, c1, c2, c3 = self._coef
        y = c3.take(i)
        for c in (c2, c1, c0):
            y *= x
            y += c.take(i)
        u += y
        return np.exp(u, out=u)


@lru_cache(maxsize=None)
def radial_law(d: int, alpha: float) -> RadialLaw:
    """The tabulated law of |xi| for the increments of ``stable_vectors``,
    built once per (d, alpha) and kept."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    if d not in (2, 3):
        raise ValueError("stable vectors are drawn in d=2 or d=3")
    return RadialLaw(d, alpha)


# i**k: the rotation by k quarter turns of a point of the plane as a complex number
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def stable_vectors(alpha: float, d: int, keys: np.ndarray, step: int,
                   n_steps: int = 1) -> np.ndarray:
    """Standardized isotropic alpha-stable increments for the block of steps
    step, ..., step + n_steps - 1: (n_steps * m, d) rows for m keys, step-major,
    so row s*m + i is the increment of keys[i] at step step + s.

    Characteristic function exp(-|u|^alpha); the time-h increment is
    h**(1/alpha) times this.  Each row is a function of its key and step
    alone, so a block equals its steps drawn one at a time, bit for bit.
    d is 2 or 3.
    """
    law = radial_law(d, alpha)
    # one counter base per step, d slots a step, a column that broadcasts
    # against the keys
    base = np.arange(step, step + n_steps, dtype=np.uint64)[:, None] * np.uint64(d)
    r = law.radii(uniform01(keys, base).ravel())
    out = np.empty((r.size, d))
    if d == 3:
        # the height 1 - 2w, and 2 sqrt(w (1 - w)), the radius of its circle
        w = uniform01(keys, base + np.uint64(1)).ravel()
        np.multiply(w, -2.0, out=out[:, 2])
        out[:, 2] += 1.0
        out[:, 2] *= r
        r *= 2.0
        np.subtract(1.0, w, out=out[:, 0])
        w *= out[:, 0]
        np.sqrt(w, out=w)
        r *= w
        del w
    # the angle 2 pi v: sin and cos of the fraction of its last quarter
    # turn, then one complex product by r i**k for its k whole quarter
    # turns, whose parts are r times 0 or +-1, so the rotation is exact
    v = uniform01(keys, base + np.uint64(d - 1)).ravel()
    v *= 4.0
    k = v.astype(np.intp)
    v -= k
    v *= 0.5 * np.pi
    np.cos(v, out=out[:, 0])
    np.sin(v, out=out[:, 1])
    del v
    turn = _QUARTER_TURNS.take(k)
    del k
    turn.real *= r
    turn.imag *= r
    out[:, :2].view(np.complex128)[:, 0] *= turn
    return out
