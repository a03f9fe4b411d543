"""Bubble configurations: champagne families of disjoint closed balls
accumulating at the boundary, their generator and separation infimum.  The
generator's one random choice, a rotation per shell, comes from the counter
streams of ``rng``, and no BLAS routine computes a centre.

Radial profiles and weight functions are closed-form enumerations rather than
arbitrary callables: divergence of an improper integral cannot be decided
from finitely many samples of a black box, so the criteria module needs the
analytic form.  The enumeration lives here: one class per family under the
bases ``RadialProfile`` and ``WeightFunction`` declares its JSON kind and
parameter, its formula and its tail exponents.

Memory.  A configuration keeps per bubble its centre (8d bytes), its radius
and its distance to the boundary (8 bytes each) and its shell label (int32,
widened to int64 by each read of ``shell_ids``): 36 bytes a bubble in d=2
and 44 in d=3.  From validation on it also keeps its ball index, 13.7 bytes
a bubble on the W2 disk (see ``spatial``).  Beyond these arrays, every pass
holds one block of rows: the shell generator writes each lattice straight
into the rows of the centres _LATTICE_BLOCK rows at a time; the distances to
the boundary, the radius-ratio check and the separation ratios take
_ROW_BLOCK bubbles at a time; and ``to_csv`` formats _CSV_BLOCK rows at a
time.  No block size changes a result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .geometry import BallDomain, _number, row_norms
from .rng import stream_keys, uniform01
from .spatial import DISJOINTNESS_SLACK, BallIndex

__all__ = [
    "BubbleConfig",
    "ConstantProfile",
    "PowerProfile",
    "LogProfile",
    "RadialProfile",
    "OneWeight",
    "PowerWeight",
    "LogWeight",
    "WeightFunction",
    "generate_shell_config",
    "shell_radii",
    "separation_infimum",
]


# ---------------------------------------------------------------------------
# closed-form families: radial profiles phi and weight functions M
# ---------------------------------------------------------------------------

class _Family:
    """One closed-form family, a frozen dataclass of at most one field: its
    JSON ``kind``, its parameter ``param`` (or None) with values in (0,
    ``upper``), its formula ``_at`` on float arrays, and ``tail(d, alpha)``,
    the exponents (rate, log_power) of its factor of the tail integrand
    phi(t)^(d-a) * M(t) = const * exp(rate*u) * (1+u)^log_power in
    u = -log(1-t), (0, 0) if bounded above and away from 0.  Each base
    lists its families by kind in ``kinds``."""

    kinds: ClassVar[dict]
    block: ClassVar[str]   # the run configuration's block for the base
    kind: ClassVar[str]
    param: ClassVar[str | None] = None
    upper: ClassVar[float] = math.inf

    def __post_init__(self):
        if self.param and not 0.0 < getattr(self, self.param) < self.upper:
            raise ValueError(f"{self.block}.{self.param} must lie in (0, {self.upper:g}), "
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
        the block and the key, for an unknown kind, an unknown key, or a
        parameter that is missing or not a number."""
        kind = obj.get("kind")
        family = cls.kinds.get(kind) if isinstance(kind, str) else None
        if family is None:
            raise ValueError(f"{cls.block}.kind must be one of {', '.join(cls.kinds)}, "
                             f"got {kind!r}")
        unknown = sorted(set(obj) - {"kind", family.param})
        if unknown:
            raise ValueError(f"unknown field(s) in {cls.block}: {', '.join(unknown)}")
        if family.param is None:
            return family()
        if family.param not in obj:
            raise ValueError(f"missing field: {cls.block}.{family.param}")
        return family(float(_number(obj[family.param], f"{cls.block}.{family.param}")))


class RadialProfile(_Family):
    """A radial profile phi: decreasing (0,1) -> (0,1)."""

    block = "profile"


class WeightFunction(_Family):
    """A weight function M: increasing [0,1) -> [1,inf) with the
    halving-doubling property M(1 - t/2) <= c * M(1 - t)."""

    block = "weight"


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


@dataclass(frozen=True)
class OneWeight(WeightFunction):
    """M == 1; doubling constant 1."""

    kind = "one"

    def _at(self, t):
        return np.ones_like(t)


@dataclass(frozen=True)
class PowerWeight(WeightFunction):
    """M(t) = (1-t)**(-gamma), gamma > 0; doubling constant 2**gamma."""

    kind, param = "power", "gamma"
    gamma: float

    def _at(self, t):
        return (1.0 - t) ** (-self.gamma)

    def tail(self, d, alpha):
        return self.gamma, 0.0


@dataclass(frozen=True)
class LogWeight(WeightFunction):
    """M(t) = log(e/(1-t))**p, p > 0; doubling constant (1+log 2)**p."""

    kind, param = "log", "p"
    p: float

    def _at(self, t):
        return (1.0 - np.log(1.0 - t)) ** self.p

    def tail(self, d, alpha):
        return 0.0, self.p


RadialProfile.kinds = {f.kind: f for f in (ConstantProfile, PowerProfile, LogProfile)}
WeightFunction.kinds = {f.kind: f for f in (OneWeight, PowerWeight, LogWeight)}


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

# rows of bubbles.csv formatted at a time
_CSV_BLOCK = 1 << 10
# bubbles whose distances to the boundary, radius ratios and separation
# ratios are computed at a time
_ROW_BLOCK = 1 << 13


def _row_blocks(n: int):
    """Slices of at most _ROW_BLOCK rows that cover range(n) in order."""
    return (slice(i, min(i + _ROW_BLOCK, n)) for i in range(0, n, _ROW_BLOCK))


class BubbleConfig:
    """Finite family of pairwise disjoint closed balls strictly inside D,
    with sup_k r_k/delta_D(x_k) < 1/2.

    Centers and radii are stored as arrays; ``meta`` carries generation
    parameters (profile, a, shells, seed) when built by the generator, and
    ``shell_ids`` labels each bubble with its shell.  ``index`` answers
    every spatial query: point membership, the disjointness check's
    candidate pairs and the separation infimum's nearest centres.
    """

    def __init__(
        self,
        domain: BallDomain,
        centers,
        radii,
        shell_ids=None,
        meta: dict | None = None,
        validate: bool = True,
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
        self._shell_ids = None if shell_ids is None else np.asarray(shell_ids, dtype=np.int32)
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

        if validate and self.n > 1:
            report = self.disjointness_report()
            if report["violations"]:
                j, k = report["violations"][0]
                raise ValueError(
                    f"bubbles {j} and {k} are not disjoint "
                    f"(gap {report['min_margin']:.3e} <= slack {DISJOINTNESS_SLACK:g})"
                )

    @property
    def n(self) -> int:
        return int(self.centers.shape[0])

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def shell_ids(self) -> np.ndarray | None:
        """Each bubble's shell as int64, widened on each call from the int32
        labels that the configuration keeps."""
        return None if self._shell_ids is None else self._shell_ids.astype(np.int64)

    @cached_property
    def index(self) -> BallIndex:
        """The one ``BallIndex`` over these bubbles, built on first use."""
        return BallIndex(self.centers, self.radii, origin=self.domain.center)

    # -- disjointness ---------------------------------------------------------

    def disjointness_report(self) -> dict:
        """Exact pairwise disjointness via squared-distance comparisons.

        The candidate pairs are ``index.near_pairs()``: every pair whose
        centres lie within r_max,a + r_max,b + slack of each other, with
        r_max,a and r_max,b the largest radii of the two bubbles' radius
        classes, which holds every pair that can violate.  A pair (j, k)
        violates when |c_j - c_k|^2 <= (r_j + r_k + slack)^2.  Returns the
        violations as sorted (j, k) with j < k, the least gap
        |c_j - c_k| - r_j - r_k among the candidate pairs, and the slack.
        """
        slack = DISJOINTNESS_SLACK
        if self.n < 2:
            return {"violations": [], "min_margin": math.inf, "slack": slack}
        j, k = self.index.near_pairs()
        dsq = ((self.centers[j] - self.centers[k]) ** 2).sum(axis=1)
        rsum = self.radii[j] + self.radii[k]
        lim = rsum + slack
        bad = dsq <= lim * lim
        violations = sorted(zip(np.minimum(j, k)[bad].tolist(), np.maximum(j, k)[bad].tolist()))
        min_margin = float((np.sqrt(dsq) - rsum).min()) if j.size else math.inf
        return {"violations": violations, "min_margin": min_margin, "slack": slack}

    # -- serialization ----------------------------------------------------------

    def to_csv(self, path) -> None:
        """One bubble per row: k, x_1..x_d, r; floats as repr, CRLF line ends.

        Rows are formatted _CSV_BLOCK at a time, which bounds the Python
        objects alive at once, and each block formats each of its distinct
        radii once (a shell configuration has one radius per shell).
        """
        header = ["k"] + [f"x_{j + 1}" for j in range(self.dimension)] + ["r"]
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + "\r\n")
            for start in range(0, self.n, _CSV_BLOCK):
                stop = min(self.n, start + _CSV_BLOCK)
                radii, which = np.unique(self.radii[start:stop], return_inverse=True)
                r_text = [repr(r) for r in radii.tolist()]
                f.writelines(f"{k},{','.join(map(repr, row))},{r_text[j]}\r\n"
                             for k, row, j in zip(range(start, stop),
                                                  self.centers[start:stop].tolist(),
                                                  which.tolist()))


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


def _check_shell_domain(domain: BallDomain) -> None:
    """ValueError unless the shell generator can build in domain: the unit
    ball at the origin in d=2 or d=3."""
    if domain.dimension not in (2, 3):
        raise ValueError("shell generator supports d in {2, 3}")
    if float(domain.radius) != 1.0 or not np.all(domain.center == 0.0):
        raise ValueError("shell generator requires the unit ball at the origin")


def _shell_phi(phi: RadialProfile, t: np.ndarray) -> np.ndarray:
    """phi at the shell radii t; ValueError if a value is >= 1/2, which no
    bubble of radius (1 - t)*phi(t) centred at radius t can satisfy."""
    phi_vals = np.asarray(phi(t), dtype=float)
    bad = np.where(phi_vals >= 0.5)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"shell {i + 1}: phi(t)={phi_vals[i]:.6g} >= 1/2 violates the ratio constraint"
        )
    return phi_vals


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


# lattice factors relative to the mean spacing: the Fibonacci lattice has
# min-NN distance 0.872x and covering radius <= 0.77x the mean (measured,
# stable in N); d=2 chords are enforced exactly instead
_MIN_NN_FACTOR = {2: 0.99, 3: 0.85}
_COVER_FACTOR = {3: 0.80}
# lattice rows computed at a time, which bounds the generator's working memory
_LATTICE_BLOCK = 1 << 13
_SHELL_STREAMS = 2**63


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
    max(a*(1-t_i)/2, disjointness spacing), so the family is always pairwise
    disjoint; a seeded rotation decorrelates shells.

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
    """
    _check_shell_domain(domain)
    d = domain.dimension
    t = shell_radii(a, shells)
    u = 1.0 - t
    r = u * _shell_phi(phi, t)

    spacing = np.empty(shells)
    counts = np.empty(shells, dtype=np.int64)
    for i in range(shells):
        # lattice spacing: N_a coverage wants a*u/2, disjointness wants the
        # minimum pairwise chord to clear 2r
        s_cov = a * u[i] / 2.0
        s_dis = 2.0 * r[i] * 1.05 / _MIN_NN_FACTOR[d]
        s = max(s_cov, s_dis)
        spacing[i] = s
        if d == 2:
            n_i = max(3, int(math.ceil(2.0 * math.pi * t[i] / s)))
            # exact chord check: adjacent centers must clear the two radii
            while n_i > 1 and 2.0 * t[i] * math.sin(math.pi / n_i) <= 2.0 * r[i] * 1.02:
                n_i -= 1
        else:
            n_i = max(4, int(math.ceil(4.0 * math.pi * t[i] ** 2 / (s * s))))
        counts[i] = n_i

    keys = stream_keys(seed, _SHELL_STREAMS + np.arange(shells, dtype=np.uint64))
    uniforms = uniform01(keys[:, None], np.arange(3, dtype=np.uint64)).tolist()
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

    coverage_a = _coverage_parameter(a, t, spacing, counts, d)
    meta = {
        "phi": phi,
        "a": a,
        "shells": shells,
        "seed": seed,
        "t": [float(x) for x in t],
        "coverage_a": coverage_a,
    }
    return BubbleConfig(domain, centers, r[shell_ids], shell_ids=shell_ids, meta=meta)


def _coverage_parameter(a, t, spacing, counts, d) -> float:
    """Smallest a' (plus margin) with N_a'(x) >= 1 for t_1 <= |x| <= t_shells.

    Bounds the distance from any point at radius s to the nearest center on an
    adjacent shell by sqrt((s - t_j)^2 + cover_j^2) with cover_j the lattice
    covering chord, then maximizes the ratio to (1 - s) over the gaps.
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
        for s in np.linspace(lo, hi, 257):
            best = math.inf
            for jj in (j - 1, j, j + 1):
                if 0 <= jj < len(t):
                    best = min(best, math.hypot(s - t[jj], cover[jj]))
            worst = max(worst, best / (1.0 - s))
    return worst * 1.02  # >= 1 means the lattice does not certify coverage


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def separation_infimum(config: BubbleConfig, alpha: float) -> float:
    """inf over j != k of |x_j - x_k| / (r_k^(1-alpha/d) * delta(x_k)^(alpha/d)).

    +inf for a single bubble.  The denominator depends on k only, so the
    infimum reduces to each centre's distance to the nearest other centre,
    which ``config.index`` gives exactly (``BallIndex.nearest_center_distances``).
    """
    if config.n == 0:
        raise ValueError("need at least one bubble")
    d = config.dimension
    nn = config.index.nearest_center_distances()  # inf for a single bubble
    least = math.inf
    for b in _row_blocks(config.n):
        denom = config.radii[b] ** (1.0 - alpha / d) * config.deltas[b] ** (alpha / d)
        least = min(least, float((nn[b] / denom).min()))
    return least

