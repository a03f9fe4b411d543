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

:class:`PCG64Stream` is a second, unrelated stream: numpy's
``np.random.default_rng(seed)`` reproduced bit for bit in Python ints, for
the shell generator's one uniform per d=2 shell.  It takes SeedSequence's
hashmix pool of the seed's 32-bit words, ``generate_state(4, uint64)``
from that pool, then PCG64: the 128-bit LCG with XSL-RR output (O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905), stepped before
each output, and ``(u64 >> 11) * 2**-53`` for a double.  It exists so that
no CLI stage on a d=2 configuration imports ``numpy.random``, which costs
each process ≈2 MiB of resident memory and, through ``secrets`` and
``hmac``, maps OpenSSL's libcrypto.
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
    "PCG64Stream",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_SALT = np.uint64(0xA0761D6478BD642F)


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
    """Independent 64-bit keys for the given trajectory indices."""
    traj = np.asarray(traj_ids, dtype=np.uint64)
    base = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _SEED_SALT)
    return _mix64_inplace(base + traj * _GOLD)


def uniform01(keys, counters) -> np.ndarray:
    """Uniforms on the open interval (0, 1): one per (key, counter) pair."""
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    raw = _mix64_inplace(keys + counters * _GOLD)
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def slots_per_step(d: int) -> int:
    """Draws consumed per step: 2 for the subordinator, 2 per normal pair."""
    return 2 + 2 * ((d + 1) // 2)


def positive_stable(rho: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter sampler for the positive rho-stable law, rho in (0, 1).

    With u ~ U(0,1) and w ~ Exp(1) the output S satisfies
    E[exp(-lam*S)] = exp(-lam**rho).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    theta = np.pi * u
    # in place, in the order of (sin(rho theta)**(rho/(1-rho)) * sin((1-rho) theta)
    # / sin(theta)**(1/(1-rho)) / w)**((1-rho)/rho)
    a = np.sin(rho * theta) ** (rho / (1.0 - rho))
    a *= np.sin((1.0 - rho) * theta)
    theta = np.sin(theta, out=theta)
    theta **= 1.0 / (1.0 - rho)
    a /= theta
    del theta
    a /= w
    a **= (1.0 - rho) / rho
    return a


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


_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


class PCG64Stream:
    """The stream of ``np.random.default_rng(seed)``, bit for bit, without
    ``numpy.random``: ``uniform(lo, hi)`` returns what the Generator's
    scalar ``uniform(lo, hi)`` would, draw for draw.

    The seed must be a non-negative int; numpy would take None as a request
    for OS entropy, which makes a run irreproducible, so it is refused too.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        state = _generate_state(_seed_pool(int(seed)))
        self._inc = ((state[2] << 64 | state[3]) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (state[0] << 64 | state[1])) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def next_uint64(self) -> int:
        """Step the LCG, then apply the XSL-RR output function."""
        self._step()
        s = self._state
        x = (s >> 64) ^ (s & _M64)
        rot = s >> 122
        return ((x >> rot) | (x << (-rot & 63))) & _M64

    def next_double(self) -> float:
        """A double in [0, 1) on the 2**-53 grid."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()


def _hashmix(init: int, mult: int):
    """numpy's SeedSequence ``hashmix`` of one 32-bit word, with the hash
    constant it carries from call to call, starting at init."""
    hash_const = init

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _seed_pool(seed: int) -> list:
    """``SeedSequence(seed).pool``: the seed's little-endian 32-bit words
    (one word for 0) hashed into four, then every word mixed into every other."""
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list) -> list:
    """``SeedSequence.generate_state(4, np.uint64)``: eight hashed 32-bit
    words, cycling through the pool, paired low word first."""
    hashmix = _hashmix(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
