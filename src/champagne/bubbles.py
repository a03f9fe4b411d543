"""Bubble configurations: champagne families of disjoint closed balls
accumulating at the boundary, and their generator, which certifies from its
lattice parameters alone that the bubbles are disjoint and records each
shell's centre gap in closed form.  The generator's one random choice, a
rotation per shell, comes from the counter streams of ``rng``, and no BLAS
routine computes a centre.

Radial profiles are a closed-form enumeration rather than arbitrary
callables: divergence of an improper integral cannot be decided from
finitely many samples of a black box, so the criteria module needs the
analytic form.  The enumeration lives here: one class per family under the
base ``RadialProfile`` declares its JSON kind and parameter, its formula and
its tail exponents.  The generator records the profile in ``meta``, so the
criteria read the tail of the family they judge.

Memory.  A configuration keeps per bubble its centre (8d bytes), its radius
and its distance to the boundary (8 bytes each) and its int32 shell label
``shell_ids``: 36 bytes a bubble in d=2 and 44 in d=3.  Once a point query
needs it (the simulator's), it also keeps its ``index``: for a generated
d=2 shell family the lattice lookup, which holds 40 bytes a shell and reads
the centres and radii in place (``_ShellLookup``); for any other family a
``BallIndex``, 13.7 bytes a bubble on the W2 disk (see ``spatial``).
Beyond these arrays, every pass holds one block of rows: the shell
generator writes each lattice straight into the rows of the centres
_LATTICE_BLOCK rows at a time; the distances to the boundary and the
radius-ratio check take _ROW_BLOCK bubbles at a time; and ``to_csv``
formats _CSV_BLOCK rows at a time.  No block size changes a result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import spatial
from .geometry import BallDomain, _csv_lines, _number, row_norms
from .rng import stream_keys, uniform01
from .spatial import DISJOINTNESS_SLACK, BallIndex

__all__ = [
    "BubbleConfig",
    "ConstantProfile",
    "PowerProfile",
    "LogProfile",
    "RadialProfile",
    "generate_shell_config",
    "shell_radii",
]


# ---------------------------------------------------------------------------
# closed-form radial profiles phi
# ---------------------------------------------------------------------------

class RadialProfile:
    """A radial profile phi: decreasing (0,1) -> (0,1).  One family is a
    frozen dataclass of at most one field: its JSON ``kind``, its parameter
    ``param`` (or None) with values in (0, ``upper``), its formula ``_at`` on
    float arrays, and ``tail(d, alpha)``, the exponents (rate, log_power) of
    the tail integrand phi(t)^(d-a) = const * exp(rate*u) * (1+u)^log_power
    in u = -log(1-t), (0, 0) if bounded away from 0.  ``kinds`` lists the
    families by kind."""

    kinds: ClassVar[dict]
    kind: ClassVar[str]
    param: ClassVar[str | None] = None
    upper: ClassVar[float] = math.inf

    def __post_init__(self):
        if self.param and not 0.0 < getattr(self, self.param) < self.upper:
            raise ValueError(f"profile.{self.param} must lie in (0, {self.upper:g}), "
                             f"got {getattr(self, self.param)!r}")

    def __call__(self, t):
        out = self._at(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    def tail(self, d, alpha):
        return 0.0, 0.0

    def to_json(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_json(cls, obj: dict):
        """The family of ``obj["kind"]`` with its parameter; ValueError, naming
        the key, for an unknown kind, an unknown key, or a parameter that is
        missing or not a number."""
        kind = obj.get("kind")
        family = cls.kinds.get(kind) if isinstance(kind, str) else None
        if family is None:
            raise ValueError(f"profile.kind must be one of {', '.join(cls.kinds)}, got {kind!r}")
        unknown = sorted(set(obj) - {"kind", family.param})
        if unknown:
            raise ValueError(f"unknown field(s) in profile: {', '.join(unknown)}")
        if family.param is None:
            return family()
        if family.param not in obj:
            raise ValueError(f"missing field: profile.{family.param}")
        return family(float(_number(obj[family.param], f"profile.{family.param}")))


@dataclass(frozen=True)
class ConstantProfile(RadialProfile):
    """phi(t) = c with c in (0, 1)."""

    kind, param, upper = "constant", "c", 1.0
    c: float

    def _at(self, t):
        out = np.empty_like(t)
        out.fill(self.c)
        return out


@dataclass(frozen=True)
class PowerProfile(RadialProfile):
    """phi(t) = (1-t)**beta with beta > 0."""

    kind, param = "power", "beta"
    beta: float

    def _at(self, t):
        out = 1.0 - t
        out **= self.beta
        return out

    def tail(self, d, alpha):
        return -self.beta * (d - alpha), 0.0


@dataclass(frozen=True)
class LogProfile(RadialProfile):
    """phi(t) = log(e/(1-t))**(-p) with p > 0."""

    kind, param = "log", "p"
    p: float

    def _at(self, t):
        return (1.0 - np.log(1.0 - t)) ** (-self.p)

    def tail(self, d, alpha):
        return 0.0, -self.p * (d - alpha)


RadialProfile.kinds = {f.kind: f for f in (ConstantProfile, PowerProfile, LogProfile)}


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

# rows of bubbles.csv formatted at a time
_CSV_BLOCK = 1 << 10
# bubbles whose distances to the boundary and radius ratios are computed at a time
_ROW_BLOCK = 1 << 13


def _row_blocks(n: int):
    """Slices of at most _ROW_BLOCK rows that cover range(n) in order."""
    return (slice(i, min(i + _ROW_BLOCK, n)) for i in range(0, n, _ROW_BLOCK))


class BubbleConfig:
    """Finite family of closed balls strictly inside D, with
    sup_k r_k/delta_D(x_k) < 1/2, which the constructor checks per bubble.
    The balls must be pairwise disjoint, which it does not check: the shell
    generator certifies it from its lattice.

    Centers and radii are stored as arrays; ``meta`` carries generation
    parameters (profile, a, shells, seed) when built by the generator, and
    ``shell_ids`` labels each bubble with its shell (int32, or None).
    ``index`` answers point membership, and is built on its first use.
    """

    def __init__(
        self,
        domain: BallDomain,
        centers,
        radii,
        shell_ids=None,
        meta: dict | None = None,
    ):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if centers.shape[0] != radii.shape[0]:
            raise ValueError("centers and radii length mismatch")
        if centers.shape[0] and centers.shape[1] != domain.dimension:
            raise ValueError("bubble centers have wrong dimension")
        self.domain = domain
        self.centers = centers
        self.radii = radii
        self.shell_ids = None if shell_ids is None else np.asarray(shell_ids, dtype=np.int32)
        self.meta = dict(meta) if meta else {}

        self.deltas = np.empty(self.n)
        self.ratio_sup = 0.0
        if self.n:
            if not np.all(radii > 0):
                raise ValueError("bubble radii must be > 0")
            # R - |x - c| as dist_to_boundary takes it, bit for bit (d < 8),
            # without its (n, d) temporaries
            for b in _row_blocks(self.n):
                np.subtract(domain.radius, row_norms(centers[b], domain.center),
                            out=self.deltas[b])
            delta = self.deltas
            if not all(np.all(delta[b] > radii[b]) for b in _row_blocks(self.n)):
                k = int(np.argmin(delta - radii))
                raise ValueError(f"bubble {k} is not strictly inside the domain")
            self.ratio_sup = max(float((radii[b] / delta[b]).max()) for b in _row_blocks(self.n))
            if not self.ratio_sup < 0.5:
                k = int(np.argmax(radii / delta))
                raise ValueError(
                    f"ratio_sup violated: bubble {k} has r/delta = {radii[k] / delta[k]:.6g} >= 1/2"
                )

    @property
    def n(self) -> int:
        return int(self.centers.shape[0])

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @cached_property
    def index(self) -> BallIndex | _ShellLookup:
        """Point membership over these bubbles, built on first use: the
        lattice lookup (``_ShellLookup``) of a generated d=2 shell family,
        which ``_shell_lookup`` recognises from the configuration alone, and
        otherwise a ``BallIndex``.  Both answer ``contains_batch`` alike."""
        return (_shell_lookup(self)
                or BallIndex(self.centers, self.radii, origin=self.domain.center))

    # -- serialization ----------------------------------------------------------

    def to_csv(self, path) -> None:
        """One bubble per row: k, x_1..x_d, r; floats as repr, CRLF line ends.

        Rows are formatted _CSV_BLOCK at a time, a column at a time from
        ``tolist()`` (``geometry._csv_lines``), which bounds the Python
        objects alive at once, and each block formats each of its distinct
        radii once (a shell configuration has one radius per shell).
        """
        header = ["k"] + [f"x_{j + 1}" for j in range(self.dimension)] + ["r"]
        with open(path, "w", newline="") as f:
            f.write(_csv_lines([name] for name in header))
            for start in range(0, self.n, _CSV_BLOCK):
                stop = min(self.n, start + _CSV_BLOCK)
                radii, which = np.unique(self.radii[start:stop], return_inverse=True)
                r_text = [repr(r) for r in radii.tolist()]
                f.write(_csv_lines([map(str, range(start, stop)),
                                    *(map(repr, x) for x in self.centers[start:stop].T.tolist()),
                                    map(r_text.__getitem__, which.tolist())]))


# ---------------------------------------------------------------------------
# shell generator
# ---------------------------------------------------------------------------

def shell_radii(a: float, shells: int) -> np.ndarray:
    """Shell radii t_i = 1 - (1/2)*((1-a)/(1+a))**i, i = 1..shells."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if shells < 1:
        raise ValueError("shells must be >= 1")
    q = (1.0 - a) / (1.0 + a)
    i = np.arange(1, shells + 1, dtype=float)
    return 1.0 - 0.5 * q**i


def _fibonacci_sphere(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Points lo..hi - 1 (all n by default) of the n-point Fibonacci lattice."""
    k = np.arange(lo, n if hi is None else hi, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * math.pi * k / golden
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _shoemake_rotation(u1: float, u2: float, u3: float) -> tuple:
    """Rows of the rotation of Shoemake's unit quaternion from three uniforms,
    uniform on SO(3) ("Uniform random rotations", Graphics Gems III, 1992)."""
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    x, y = a * math.sin(2.0 * math.pi * u2), a * math.cos(2.0 * math.pi * u2)
    z, w = b * math.sin(2.0 * math.pi * u3), b * math.cos(2.0 * math.pi * u3)
    return ((1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)),
            (2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)),
            (2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)))


# lattice factors relative to the mean spacing sqrt(4*pi*t^2/n): the
# Fibonacci lattice's minimum-neighbour distance is 0.8487x the mean at
# n = 4, at least 0.868x for n >= 5 and 0.8723x at n = 200,000, and its
# covering radius is <= 0.77x (measured).  The spacing's 5 % margin covers
# n = 4 under 0.85; d=2 chords are enforced exactly instead.
_MIN_NN_FACTOR = {2: 0.99, 3: 0.85}
_COVER_FACTOR = {3: 0.80}
# below every measured minimum-neighbour factor, so that it bounds the
# distance between two centres of a d=3 shell
_CENTER_GAP_FACTOR = 0.84
# relative shave of each centre gap: the exact d=2 chord exceeds the distance
# between the rounded centres by up to 5e-11 of it
_GAP_SHAVE = 1e-9
# lattice rows computed at a time, which bounds the generator's working memory
_LATTICE_BLOCK = 1 << 13
_SHELL_STREAMS = 2**63


def _shell_lattice(domain: BallDomain, phi: RadialProfile, a: float, shells: int):
    """(t, r, counts, gap): the shell radii, the bubble radii, the centres per
    shell and the centre gaps that ``generate_shell_config`` records, from
    (d, a, phi, shells) alone, once its disjointness certificate holds.

    ValueError, naming the shell or the shell pair, unless the generator can
    build the family: the domain is the unit ball at the origin in d=2 or
    d=3; on every shell phi(t_i) < 1/2, without which no bubble of radius
    (1 - t)*phi(t) centred at radius t meets the ratio constraint, r_i > 0
    and the lattice has fewer than 2**62 centres; and the certificate
    holds.  Let within_i be the least distance between two centres of shell
    i (see ``generate_shell_config``), and shave it and each radial gap
    t_(i+1) - t_i by _GAP_SHAVE of itself.  The certificate asks
    within_i > 2*r_i + DISJOINTNESS_SLACK on every shell and
    t_(i+1) - t_i > r_i + r_(i+1) + DISJOINTNESS_SLACK between adjacent
    shells.  Two centres of shells i < j lie at least t_j - t_i apart, the
    sum of the adjacent gaps between them, which then clears
    r_i + r_j + DISJOINTNESS_SLACK as well.
    """
    if domain.dimension not in (2, 3):
        raise ValueError("shell generator supports d in {2, 3}")
    if float(domain.radius) != 1.0 or not np.all(domain.center == 0.0):
        raise ValueError("shell generator requires the unit ball at the origin")
    d = domain.dimension
    t = shell_radii(a, shells)
    u = 1.0 - t
    phi_t = np.asarray(phi(t), dtype=float)
    r = u * phi_t

    counts = np.empty(shells, dtype=np.int64)
    within = np.empty(shells)
    for i in range(shells):
        if not phi_t[i] < 0.5:
            raise ValueError(
                f"shell {i + 1}: phi(t)={phi_t[i]:.6g} >= 1/2 violates the ratio constraint")
        if not r[i] > 0.0:
            raise ValueError(f"shell {i + 1}: its bubble radius (1 - t)*phi(t) rounds to 0")
        # lattice spacing: N_a coverage wants a*u/2, disjointness wants the
        # minimum pairwise chord to clear 2r
        s = max(a * u[i] / 2.0, 2.0 * r[i] * 1.05 / _MIN_NN_FACTOR[d])
        n = 2.0 * math.pi * t[i] / s if d == 2 else 4.0 * math.pi * t[i] ** 2 / (s * s)
        if not n < 2**62:
            raise ValueError(f"shell {i + 1}: its lattice of {n:.3g} centres is too large")
        if d == 2:
            n_i = max(3, int(math.ceil(n)))
            # exact chord check: adjacent centers must clear the two radii
            while n_i > 1 and 2.0 * t[i] * math.sin(math.pi / n_i) <= 2.0 * r[i] * 1.02:
                n_i -= 1
            within[i] = 2.0 * t[i] * math.sin(math.pi / n_i)
        else:
            n_i = max(4, int(math.ceil(n)))
            within[i] = _CENTER_GAP_FACTOR * math.sqrt(4.0 * math.pi * t[i] ** 2 / n_i)
        counts[i] = n_i
    within *= 1.0 - _GAP_SHAVE
    radial = np.diff(t) * (1.0 - _GAP_SHAVE)
    need = 2.0 * r + DISJOINTNESS_SLACK
    bad = np.flatnonzero(~(within > need))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"shell {i + 1}: its centres lie {within[i]:.12g} apart, which does "
                         f"not clear 2r + slack = {need[i]:.12g}, so its bubbles may overlap")
    need = r[:-1] + r[1:] + DISJOINTNESS_SLACK
    bad = np.flatnonzero(~(radial > need))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"shells {i + 1} and {i + 2}: their radial gap {radial[i]:.12g} does "
                         f"not clear r_{i + 1} + r_{i + 2} + slack = {need[i]:.12g}, so their "
                         "bubbles may overlap")
    # the least distance from a centre to any other: within its shell or
    # across to a neighbour shell (shaving commutes with the minimum)
    gap = within
    np.minimum(gap[1:], radial, out=gap[1:])
    np.minimum(gap[:-1], radial, out=gap[:-1])
    return t, r, counts, gap


def _shell_uniforms(seed: int, shells: int) -> list:
    """The generator's one random draw: per shell i, the three uniforms of
    the counter stream of trajectory id 2**63 + i under seed, as floats."""
    keys = stream_keys(seed, _SHELL_STREAMS + np.arange(shells, dtype=np.uint64))
    return uniform01(keys[:, None], np.arange(3, dtype=np.uint64)).tolist()


def generate_shell_config(
    domain: BallDomain,
    phi: RadialProfile,
    a: float,
    shells: int,
    seed: int = 0,
) -> BubbleConfig:
    """Bubbles on concentric shells accumulating at the unit sphere.

    Centers sit on spheres of radius t_i = 1 - (1/2)*((1-a)/(1+a))**i with
    radii r = (1-|x|)*phi(|x|).  The angular lattice (equal angles for d=2,
    Fibonacci lattice for d=3) is spaced by
    max(a*(1-t_i)/2, disjointness spacing), which separates the bubbles of
    one shell; a seeded rotation decorrelates shells.

    The family is certified pairwise disjoint from (d, a, phi, shells) alone,
    before any centre is computed (``_shell_lattice``): every shell's
    within_i must clear 2*r_i and every radial gap t_(i+1) - t_i must clear
    r_i + r_(i+1), each gap shaved by _GAP_SHAVE and each sum widened by
    DISJOINTNESS_SLACK.  The spacing rule separates only the bubbles of one
    shell, so a family can fail the certificate, which is a ValueError
    naming the shell or the shell pair; constant phi >= a, whose adjacent
    bands touch or overlap, fails it.

    Shell i takes three uniforms u from the counter stream of trajectory id
    2**63 + i under seed (``rng.stream_keys``, ``rng.uniform01``).  For d=2
    its rotation is the angle offset 2*pi*u[0]; for d=3 it is the matrix R
    of Shoemake's uniform quaternion of u, computed with scalar ``math``,
    and each lattice row p becomes p @ R, computed column by column with
    numpy's multiply and add, which round the same on every host.  The
    seed must be an int in [0, 2**64) (ValueError otherwise).

    Exact-parameter coverage N_a >= 1 cannot hold at the critical radii
    between consecutive shells (the radial reach intervals only touch), so
    the generator records ``coverage_a`` in ``meta``: a widened parameter for
    which N_coverage_a(x) >= 1 holds on t_1 <= |x| <= t_shells, provided it
    came out below 1; values >= 1 mean no coverage certificate.

    It also records ``center_gap``: per shell i, a lower bound on the
    distance from any of its centres to any other centre,
    min(within_i, t_i - t_(i-1), t_(i+1) - t_i), with a radial gap that has
    no neighbour shell left out.  within_i is the chord 2*t_i*sin(pi/n_i)
    between adjacent centres in d=2 and _CENTER_GAP_FACTOR times the mean
    spacing sqrt(4*pi*t_i^2/n_i) in d=3; a centre of another shell lies at
    least the radial gap to the neighbour shell away.  Each bound is shaved
    by _GAP_SHAVE of itself for the rounding of the centres.
    """
    d = domain.dimension
    t, r, counts, gap = _shell_lattice(domain, phi, a, shells)

    uniforms = _shell_uniforms(seed, shells)
    shell_ids = np.repeat(np.arange(shells, dtype=np.int32), counts)
    centers = np.empty((shell_ids.size, d))
    first = 0
    for i, n_i in enumerate(counts.tolist()):
        for lo in range(0, n_i, _LATTICE_BLOCK):
            hi = min(n_i, lo + _LATTICE_BLOCK)
            out = centers[first + lo:first + hi]
            if d == 2:
                ang = 2.0 * math.pi * uniforms[i][0] + 2.0 * math.pi * np.arange(lo, hi) / n_i
                out[:, 0] = np.cos(ang)
                out[:, 1] = np.sin(ang)
            else:
                # the rows p @ rot, as multiply-adds rather than a BLAS matmul
                rot = _shoemake_rotation(*uniforms[i])
                p = _fibonacci_sphere(n_i, lo, hi)
                for j in range(3):
                    out[:, j] = p[:, 0] * rot[0][j] + p[:, 1] * rot[1][j] + p[:, 2] * rot[2][j]
            out *= t[i]
        first += n_i

    coverage_a = _coverage_parameter(a, t, counts, d)
    meta = {
        "phi": phi,
        "a": a,
        "shells": shells,
        "seed": seed,
        "t": [float(x) for x in t],
        "coverage_a": coverage_a,
        "center_gap": gap.tolist(),
    }
    return BubbleConfig(domain, centers, r[shell_ids], shell_ids=shell_ids, meta=meta)


def _coverage_parameter(a, t, counts, d) -> float:
    """Smallest a' (plus margin) with N_a'(x) >= 1 for t_1 <= |x| <= t_shells.

    Bounds the distance from any point at radius s to the nearest center on an
    adjacent shell by sqrt((s - t_j)^2 + cover_j^2) with cover_j the lattice
    covering chord, then maximizes the ratio to (1 - s) over the gaps, at 257
    radii s a gap.
    """
    cover = np.empty(len(t))
    for j in range(len(t)):
        if d == 2:
            cover[j] = 2.0 * t[j] * math.sin(math.pi / counts[j])  # full spacing chord
            cover[j] /= 2.0  # worst point sits half a spacing away
        else:
            cover[j] = _COVER_FACTOR[3] * math.sqrt(4.0 * math.pi * t[j] ** 2 / counts[j])
    worst = a
    for j in range(len(t)):
        lo = t[j - 1] if j else t[j]
        hi = t[j + 1] if j + 1 < len(t) else t[j]
        s = np.linspace(lo, hi, 257)
        best = np.full(s.size, np.inf)
        for jj in range(max(j - 1, 0), min(j + 2, len(t))):
            # math.hypot, which np.hypot misses by an ulp on some families
            dist = map(math.hypot, (s - t[jj]).tolist(), itertools.repeat(cover[jj]))
            np.minimum(best, np.fromiter(dist, float, s.size), out=best)
        worst = max(worst, float((best / (1.0 - s)).max()))
    return worst * 1.02  # >= 1 means the lattice does not certify coverage


# ---------------------------------------------------------------------------
# lattice lookup
# ---------------------------------------------------------------------------

# outward widening of each shell's radial band, relative to R as spatial's
# _BAND_PAD is, but a quarter of it: the certificate's DISJOINTNESS_SLACK
# exceeds 1.5 pads, which keeps each widened band clear of a neighbour's
# bubbles (see _ShellLookup)
_LATTICE_PAD = 2.0**-42
# per slot of a shell of n_i, a bound on the rounding of one slot coordinate
_SLOT_ROUNDING = 2.0**-44


class _ShellLookup:
    """Point-in-ball queries over a generated d=2 shell family, read from its
    lattice instead of a grid over its bubbles: O(shells) memory and
    O(log shells) work a query.  ``_shell_lookup`` builds it.

    Shell i of the generator holds n_i bubbles of radius r_i, bubble j
    (row first_i + j) centred at t_i*(cos, sin)(2*pi*(u_i + j/n_i)).  A
    query x takes the first band whose widened top t_i + r_i + P is at
    least |x|, and is dropped unless |x| >= t_i - r_i - P, with P =
    _LATTICE_PAD*R.  Its slot coordinate is f = (atan2(x)/(2*pi) - u_i)*n_i,
    and its candidate the bubble of slot rint(f) mod n_i.  The decision is
    ``BallIndex``'s closed test |x - c_k| <= r_k on the same arrays, so no
    answer depends on the lookup, whose one duty is not to miss a bubble.
    Queries are taken spatial._QUERY_BLOCK at a time.

    Exactness.  ``_shell_lookup`` admits a family only if every centre c_k
    of shell i lies within P/2 of radius t_i, has radius r_i exactly, and
    has a slot coordinate within tol_i = 1/2 - reach_i - 4*n_i*_SLOT_ROUNDING
    of its own slot j, with reach_i = n_i*asin(r_i/(t_i - P))/(2*pi).  Let x
    lie in bubble k of shell i.
    - Band: |x| lies within r_i + P/2 of t_i, up to a rounding of about
      1e-16, so inside band i widened by P.  The certificate puts
      t_(i+1) - t_i above r_i + r_(i+1) + DISJOINTNESS_SLACK, and the slack
      exceeds 1.5*P, so |x| is above band i-1's widened top: the first band
      whose top reaches |x| is band i.
    - Slot: seen from the origin, x lies within asin(r_i/|c_k|) of the
      angle of c_k, reach_i slots at most.  Each computed slot coordinate,
      x's and c_k's, lies within n_i*_SLOT_ROUNDING of its exact value: a
      bound a hundred times the few ulps that atan2, the division, the
      subtraction and the product lose on a coordinate of magnitude at
      most 1.5*n_i, which also covers a whole turn rounding to 2*math.pi.
      Two more such bounds cover the rounding of reach_i and the last bit
      of the closed test.  So f lies within 1/2 of j modulo n_i, and rint
      gives slot j.
    The generator keeps each chord 2*t_i*sin(pi/n_i) above 2.04*r_i, so
    reach_i < 0.5/1.02 (asin is convex, so asin(s/1.02) <= asin(s)/1.02)
    and tol_i > 0.0098 - 4*n_i*_SLOT_ROUNDING, positive on every shell of
    fewer than 4*10^10 bubbles; on the W2 disk reach_i is 0.40.  So the nearest slot is the
    only possible owner and no neighbour slot needs a test; a family with
    some tol_i <= 0 is not admitted.
    """

    def __init__(self, centers, radii, t, r, counts, turns):
        self._centers, self._radii = centers, radii
        # the last band's successor starts at +inf, so no query lands there
        self._lo = np.append(t - r - _LATTICE_PAD, np.inf)
        self._hi = t + r + _LATTICE_PAD
        self._turns = np.asarray(turns, dtype=float)
        self._counts = counts
        self._first = np.cumsum(counts) - counts

    def _locate(self, x: np.ndarray):
        """(rows, pts, shell, k, off) for the rows of x whose norm lies in a
        widened band: the rows, their points, their band, the bubble k of
        the nearest slot, and the slot coordinate's offset from that slot."""
        rho = row_norms(x, np.zeros(2))
        shell = np.searchsorted(self._hi, rho)
        rows = np.flatnonzero(rho >= self._lo[shell])
        shell = shell[rows]
        pts = np.take(x, rows, axis=0)
        off = np.arctan2(pts[:, 1], pts[:, 0])
        off /= 2.0 * math.pi
        off -= self._turns[shell]
        off *= self._counts[shell]
        slot = np.rint(off)
        off -= slot
        k = slot.astype(np.int64)
        k %= self._counts[shell]
        k += self._first[shell]
        return rows, pts, shell, k, off

    def contains_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each query point: (hit mask, index of the containing ball or
        -1), as ``BallIndex.contains_batch`` gives them."""
        x = np.asarray(x, dtype=float)
        hit = np.zeros(x.shape[0], dtype=bool)
        owner = np.full(x.shape[0], -1, dtype=np.int64)
        block = spatial._QUERY_BLOCK
        for start in range(0, x.shape[0], block):
            rows, pts, _, k, _ = self._locate(x[start:start + block])
            inside = row_norms(pts, self._centers[k]) <= self._radii[k]
            rows = rows[inside] + start
            hit[rows] = True
            owner[rows] = k[inside]
        return hit, owner


def _shell_lookup(config: BubbleConfig) -> _ShellLookup | None:
    """The lattice lookup of ``config``, or None unless its input shows it
    to be a generated d=2 shell family: d = 2 and the unit disk at the
    origin; ``meta`` records phi, a, shells and seed, from which
    ``_shell_lattice`` and ``_shell_uniforms`` rebuild the lattice; the
    bubbles number the lattice's n; and every centre, checked
    spatial._QUERY_BLOCK at a time, passes the checks that ``_ShellLookup``
    argues exactness from, so that its own lookup returns its row."""
    meta, dom = config.meta, config.domain
    if dom.dimension != 2 or not {"phi", "a", "shells", "seed"} <= meta.keys():
        return None
    try:
        t, r, counts, _ = _shell_lattice(dom, meta["phi"], meta["a"], meta["shells"])
        turns = [u[0] for u in _shell_uniforms(meta["seed"], meta["shells"])]
    except (TypeError, ValueError):
        return None
    if config.n != int(counts.sum()):
        return None
    reach = counts * np.arcsin(r / (t - _LATTICE_PAD)) / (2.0 * math.pi)
    tol = 0.5 - reach - 4.0 * _SLOT_ROUNDING * counts
    if not np.all(tol > 0.0):
        return None
    lookup = _ShellLookup(config.centers, config.radii, t, r, counts, turns)
    block = spatial._QUERY_BLOCK
    for start in range(0, config.n, block):
        rows, pts, shell, k, off = lookup._locate(config.centers[start:start + block])
        if not (np.array_equal(k, np.arange(start, start + rows.size))
                and rows.size == min(block, config.n - start)
                and np.all(np.abs(off) < tol[shell])
                and np.all(np.abs(row_norms(pts, np.zeros(2)) - t[shell]) <= _LATTICE_PAD / 2)
                and np.array_equal(config.radii[start:start + block], r[shell])):
            return None
    return lookup
