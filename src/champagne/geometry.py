"""Ball-shaped state spaces: boundary distance, interior tangent balls, scaling.

Only ball domains are supported.  For a ball both the distance to the boundary
and the interior tangent ball are closed-form, which removes every tolerance
knob from the quantities the rest of the toolkit consumes (delta_D and the
interior-ball radius R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BallDomain",
    "dist_to_boundary",
    "row_norms",
    "interior_ball_point",
    "scale_domain",
]


@dataclass(frozen=True)
class BallDomain:
    """Open ball B(center, radius) used as the state space.

    The interior-ball radius of a ball equals its radius; every boundary point
    admits an interior tangent ball of that radius.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if center.ndim != 1 or center.shape[0] < 2:
            raise ValueError("domain dimension must be an integer >= 2")
        if not self.radius > 0:
            raise ValueError("radius must be > 0")

    @property
    def dimension(self) -> int:
        return int(self.center.shape[0])

    @property
    def interior_ball_radius(self) -> float:
        """R(D); for a ball this is the radius itself."""
        return self.radius

    def contains(self, x) -> np.ndarray | bool:
        """Whether x lies in the open ball.  Accepts a point or an (n, d) batch."""
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        sq = ((x - self.center) ** 2).sum(axis=-1)
        return sq < self.radius * self.radius

    def boundary_point(self, direction) -> np.ndarray:
        """Point of the boundary sphere in the given (nonzero) direction."""
        u = np.asarray(direction, dtype=float)
        norm = float(np.sqrt((u * u).sum()))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return self.center + self.radius * (u / norm)

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.dimension:
            raise ValueError(
                f"dimension mismatch: point has d={x.shape[-1]}, domain has d={self.dimension}"
            )

    def to_json(self) -> dict:
        return {"center": [float(c) for c in self.center], "radius": self.radius}

    @classmethod
    def from_json(cls, obj: dict) -> "BallDomain":
        return cls(np.asarray(obj["center"], dtype=float), float(obj["radius"]))


def dist_to_boundary(domain: BallDomain, x, signed: bool = False):
    """Distance delta_D(x) from x to the boundary sphere.

    Clamps to 0 outside the domain by default; with ``signed=True`` returns
    radius - |x - center| (negative outside).  Vectorizes over a leading batch
    axis.  1-Lipschitz in x.
    """
    x = np.asarray(x, dtype=float)
    domain._check_dim(x)
    d = domain.radius - np.sqrt(((x - domain.center) ** 2).sum(axis=-1))
    if signed:
        return d if d.ndim else float(d)
    clamped = np.maximum(d, 0.0)
    return clamped if clamped.ndim else float(clamped)


def row_norms(x: np.ndarray, c) -> np.ndarray:
    """|x_i - c| for each row of the (m, d) array x, adding the squares left to
    right as numpy's ``sum(axis=1)`` does for rows of fewer than 8 terms (so
    bit for bit the same for d < 8), but without its slow per-row reduction."""
    sq = (x[:, 0] - c[0]) ** 2
    for j in range(1, x.shape[1]):
        sq += (x[:, j] - c[j]) ** 2
    return np.sqrt(sq)


def scale_domain(domain: BallDomain, a: float) -> BallDomain:
    """The dilated domain aD = {a*x : x in D}.  R(aD) = a*R(D)."""
    if not a > 0:
        raise ValueError("scale factor must satisfy a > 0")
    return BallDomain(domain.center * a, domain.radius * a)


def interior_ball_point(
    domain: BallDomain,
    x0,
    r: float,
    r_star: float,
    theta: float = 0.125,
) -> np.ndarray:
    """Center x_tilde of a ball sitting inside both B(x0, r_star) and D.

    For a near-boundary x0, x_tilde lies at distance (3/4)*r_star from x0 on
    the segment toward the center of the interior tangent ball, and
    B(x_tilde, theta*r_star) is contained in B(x0, r_star) ∩ D for any
    theta <= 1/4.  Preconditions are reported with the failing inequality
    named.
    """
    x0 = np.asarray(x0, dtype=float)
    domain._check_dim(x0)
    R = domain.interior_ball_radius
    if not (r > 0):
        raise ValueError("precondition violated: 0 < r")
    if not (2 * r <= r_star):
        raise ValueError("precondition violated: 2*r <= r_star")
    if not (r_star < R / 2):
        raise ValueError("precondition violated: r_star < R/2")
    delta = dist_to_boundary(domain, x0)
    if not (delta < R / 2):
        raise ValueError("precondition violated: dist_to_boundary(x0) < R/2")
    if not (r < delta):
        raise ValueError("precondition violated: r < dist_to_boundary(x0), i.e. B(x0, r) in D")
    if not (0 < theta <= 0.25):
        raise ValueError("precondition violated: 0 < theta <= 1/4")

    # For a ball the interior tangent ball at the nearest boundary point is
    # centered at the domain center, so the segment x0 -> y0 points inward
    # radially.  delta < R/2 guarantees x0 != center.
    u = x0 - domain.center
    u = u / np.sqrt((u * u).sum())
    return x0 - 0.75 * r_star * u
