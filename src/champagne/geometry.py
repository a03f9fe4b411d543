"""Ball-shaped state spaces and the distance to their boundary.

Only ball domains are supported.  For a ball the distance to the boundary is
closed-form, which removes every tolerance knob from delta_D, the quantity
the rest of the toolkit consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BallDomain",
    "dist_to_boundary",
    "row_norms",
]


@dataclass(frozen=True)
class BallDomain:
    """Open ball B(center, radius) used as the state space."""

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

    def contains(self, x) -> np.ndarray | bool:
        """Whether x lies in the open ball.  Accepts a point or an (n, d) batch."""
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        sq = ((x - self.center) ** 2).sum(axis=-1)
        return sq < self.radius * self.radius

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.dimension:
            raise ValueError(
                f"dimension mismatch: point has d={x.shape[-1]}, domain has d={self.dimension}"
            )

    def to_json(self) -> dict:
        return {"center": [float(c) for c in self.center], "radius": self.radius}

    @classmethod
    def from_json(cls, obj: dict) -> "BallDomain":
        center = obj["center"]
        if not isinstance(center, list):
            raise ValueError(f"domain.center must be a list of numbers, got {center!r}")
        return cls(np.array([_number(c, "domain.center") for c in center], dtype=float),
                   float(_number(obj["radius"], "domain.radius")))


def _number(value, name: str):
    """value, if it is a JSON number: an int or a float, not a bool.  Anything
    else, a string included, is a ValueError naming the config key ``name``
    rather than being parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def dist_to_boundary(domain: BallDomain, x):
    """Distance delta_D(x) from x to the boundary sphere, clamped to 0
    outside the domain.  Vectorizes over a leading batch axis.  1-Lipschitz
    in x.
    """
    x = np.asarray(x, dtype=float)
    domain._check_dim(x)
    d = domain.radius - np.sqrt(((x - domain.center) ** 2).sum(axis=-1))
    clamped = np.maximum(d, 0.0)
    return clamped if clamped.ndim else float(clamped)


def row_norms(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|x_i - c| for each row of the (m, d) array x, where c is one point (d,)
    or one point per row (m, d), adding the squares left to right as numpy's
    ``sum(axis=1)`` does for rows of fewer than 8 terms (so bit for bit the
    same for d < 8), but without its slow per-row reduction."""
    sq = (x[:, 0] - c[..., 0]) ** 2
    for j in range(1, x.shape[1]):
        sq += (x[:, j] - c[..., j]) ** 2
    return np.sqrt(sq)
