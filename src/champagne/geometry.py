"""Ball-shaped state spaces and the distance to their boundary.

Only ball domains are supported.  For a ball the distance to the boundary is
closed-form, which removes every tolerance knob from delta_D, the quantity
the rest of the toolkit consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BallDomain",
    "dist_to_boundary",
    "row_norms",
    "finest_key_level",
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


def _cube_grid(domain: BallDomain, level: int) -> tuple[list[int], list[int]]:
    """Per axis, the index of the first dyadic box of ``level`` that meets the
    domain's closed bounding box, and the number of such boxes."""
    side = 2.0 ** (-level)
    first = [math.floor(v / side) for v in (domain.center - domain.radius).tolist()]
    last = [math.floor(v / side) for v in (domain.center + domain.radius).tolist()]
    return first, [b - a + 1 for a, b in zip(first, last)]


def finest_key_level(domain: BallDomain) -> int:
    """The finest dyadic level whose boxes over the domain's bounding box
    number fewer than 2**63, so that they have int64 keys: 30 for the unit
    disk and 19 for the unit ball.  Coarser levels have no more boxes, and the
    search starts above any level whose boxes could number 2**63."""
    level = math.floor(63 / domain.dimension - math.log2(2.0 * domain.radius)) + 1
    while math.prod(_cube_grid(domain, level)[1]) >= 2**63:
        level -= 1
    return level


def _csv_lines(columns) -> str:
    """The CSV text of the rows that ``columns`` form, each column an iterable
    of field strings that need no quoting, one per row: fields joined by
    commas and each row ended by CRLF, as ``csv.writer`` writes them.  It is
    built with ``zip``, ``map`` and ``str.join``, so no Python code runs per
    row or per field; the empty string if there is no row."""
    lines = list(map(",".join, zip(*columns)))
    lines.append("")
    return "\r\n".join(lines)
