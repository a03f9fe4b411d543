"""Spatial index for point-in-ball membership over large bubble families.

Bubble radii in a champagne configuration span many orders of magnitude, so a
single-resolution structure degrades.  Balls are bucketed by the power-of-two
exponent of their radius; each bucket gets a KD-tree over centers plus a
radial band, and membership tests query only buckets whose band can contain
the point, after one mask has dropped every point outside the span of all
the bands.  Power-of-two bucketing keeps every decision exactly covariant
under dilation of the whole configuration by a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import row_norms

__all__ = ["BallIndex"]


@dataclass
class _Bucket:
    tree: cKDTree
    ids: np.ndarray        # global bubble indices
    radii: np.ndarray
    r_max: float
    norm_lo: float         # |center| band, widened by r_max
    norm_hi: float


class BallIndex:
    """Point-in-ball queries against a fixed family of disjoint closed balls."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray, origin=None):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2 or centers.shape[0] != radii.shape[0]:
            raise ValueError("centers must be (n, d) with matching radii")
        self.n = centers.shape[0]
        self.dimension = centers.shape[1] if self.n else 0
        self.origin = (
            np.zeros(self.dimension) if origin is None else np.asarray(origin, dtype=float)
        )
        self._buckets: list[_Bucket] = []
        if self.n == 0:
            return
        _, exponents = np.frexp(radii)
        norms = np.sqrt(((centers - self.origin) ** 2).sum(axis=1))
        for e in np.unique(exponents):
            mask = exponents == e
            ids = np.where(mask)[0]
            r_max = float(radii[ids].max())
            self._buckets.append(
                _Bucket(
                    tree=cKDTree(centers[ids]),
                    ids=ids,
                    radii=radii[ids],
                    r_max=r_max,
                    norm_lo=float(norms[ids].min()) - r_max,
                    norm_hi=float(norms[ids].max()) + r_max,
                )
            )
        self._span_lo = min(b.norm_lo for b in self._buckets)
        self._span_hi = max(b.norm_hi for b in self._buckets)

    def contains_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each query point: (hit mask, index of a containing ball or -1).

        Membership is closed (<= radius).  Balls are disjoint, so the
        containing ball is unique.
        """
        x = np.asarray(x, dtype=float)
        found = np.zeros(x.shape[0], dtype=bool)
        found_owner = np.full(x.shape[0], -1, dtype=np.int64)
        if self.n == 0 or x.shape[0] == 0:
            return found, found_owner
        norms = row_norms(x, self.origin)
        banded = np.flatnonzero((norms >= self._span_lo) & (norms <= self._span_hi))
        x, norms = np.take(x, banded, axis=0), norms[banded]
        hit = np.zeros(banded.size, dtype=bool)
        owner = np.full(banded.size, -1, dtype=np.int64)
        for b in self._buckets:
            cand = (~hit) & (norms >= b.norm_lo) & (norms <= b.norm_hi)
            if not cand.any():
                continue
            rows = np.where(cand)[0]
            dist, j = b.tree.query(x[rows], k=1)
            inside = dist <= b.radii[j]
            hit[rows[inside]] = True
            owner[rows[inside]] = b.ids[j[inside]]
            # a farther ball of this bucket could still contain the point;
            # disjointness plus the 2x radius spread keeps this rare
            unresolved = (~inside) & (dist <= 2.0 * b.r_max)
            for row in rows[unresolved]:
                for cand_j in b.tree.query_ball_point(x[row], b.r_max):
                    dd = math.sqrt(((x[row] - b.tree.data[cand_j]) ** 2).sum())
                    if dd <= b.radii[cand_j]:
                        hit[row] = True
                        owner[row] = b.ids[cand_j]
                        break
        found[banded], found_owner[banded] = hit, owner
        return found, found_owner

    def contains(self, x) -> int | None:
        """Index of the ball containing point x, or None."""
        got, owner = self.contains_batch(np.asarray(x, dtype=float)[None, :])
        return int(owner[0]) if got[0] else None
