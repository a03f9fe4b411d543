"""The column-wise CSV writers against the per-row formatting they replaced.

``bubbles.csv``, ``trajectories.csv`` and ``whitney.csv`` are built a column
at a time with ``map``/``zip``/``str.join`` (``geometry._csv_lines``).  The
oracles below are the per-row writers they replaced, with the same
formatting: an f-string per bubble row, and ``csv.writer`` over numpy
scalars per trajectory and per cube.  Every case must match them byte for
byte.
"""

import csv

import numpy as np
import pytest

from champagne.bubbles import _CSV_BLOCK, BubbleConfig
from champagne.geometry import BallDomain
from champagne.harness import _write_trajectories
from champagne.simulate import _TAGS
from champagne.whitney import decompose, whitney, write_csv


def _bubbles_oracle(config: BubbleConfig, path) -> None:
    header = ["k"] + [f"x_{j + 1}" for j in range(config.dimension)] + ["r"]
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, config.n, _CSV_BLOCK):
            stop = min(config.n, start + _CSV_BLOCK)
            radii, which = np.unique(config.radii[start:stop], return_inverse=True)
            r_text = [repr(r) for r in radii.tolist()]
            f.writelines(f"{k},{','.join(map(repr, row))},{r_text[j]}\r\n"
                         for k, row, j in zip(range(start, stop),
                                              config.centers[start:stop].tolist(),
                                              which.tolist()))


def _trajectories_oracle(path, d, tags, steps, bubbles, finals) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["traj", "outcome", "steps", "bubble"] + [f"x_{j + 1}" for j in range(d)])
        for t in range(len(tags)):
            w.writerow([t, _TAGS[int(tags[t])], int(steps[t]), int(bubbles[t])]
                       + [repr(float(v)) for v in finals[t]])


def _whitney_oracle(domain, cubes_per_level, path) -> None:
    d = domain.dimension
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level"] + [f"i_{j}" for j in range(d)] + [f"c_{j}" for j in range(d)]
                   + ["side", "dist_boundary"])
        for lev in sorted(cubes_per_level):
            side = 2.0 ** (-lev)
            cubes = cubes_per_level[lev][0]
            for idx, ctr, dist in zip(cubes, (cubes + 0.5) * side,
                                      whitney(domain, lev, cubes)[1]):
                w.writerow([lev] + [int(k) for k in idx] + [repr(float(c)) for c in ctr]
                           + [repr(side), repr(float(dist))])


# -0.0 and the least subnormal; either side of where repr switches to
# exponent form (1e-05 against 0.0001); and a value past 2**53
EDGE = np.array([-0.0, 5e-324, 1e-05, 9.999e-05, 1e16, -1e16, 0.1, 1.0 / 3.0])


def _values(n: int, seed: int) -> np.ndarray:
    """n values: the edge values in turn, each scaled at random by a power
    of ten, with every fourth one plain."""
    rng = np.random.default_rng(seed)
    out = EDGE[np.arange(n) % EDGE.size] * 10.0 ** rng.integers(-3, 1, n)
    out[::4] = EDGE[(np.arange(n) % EDGE.size)[::4]]
    return out


def _assert_same_bytes(tmp_path, n: int) -> None:
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "oracle.csv").read_bytes()
    if n > _CSV_BLOCK:  # every edge value was written
        for text in (b"-0.0,", b"5e-324", b"1e-05", b"9.999e-05", b"1e+16"):
            assert text in new


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 2 * _CSV_BLOCK + 5])
def test_bubbles_csv_equals_the_per_row_writer(tmp_path, d, n):
    # a domain large enough for 1e16 coordinates; each bubble's radius is a
    # small fraction of its distance to the boundary
    domain = BallDomain(np.zeros(d), 1e17)
    centers = np.stack([np.roll(_values(n, 1 + j), j) for j in range(d)], axis=1)
    radii = np.abs(_values(n, 9))
    radii[radii == 0.0] = 5e-324
    config = BubbleConfig(domain, centers.reshape(n, d), radii)
    config.to_csv(tmp_path / "new.csv")
    _bubbles_oracle(config, tmp_path / "oracle.csv")
    _assert_same_bytes(tmp_path, n)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 2 * _CSV_BLOCK + 5])
def test_trajectories_csv_equals_the_per_row_writer(tmp_path, d, n):
    tags = (np.arange(n) % 3).astype(np.int8)
    steps = (np.arange(n, dtype=np.int64) * 7919) % 20_000
    bubbles = np.where(tags == 0, np.arange(n, dtype=np.int64) * 31, -1)
    finals = np.stack([np.roll(_values(n, 5 + j), j) for j in range(d)], axis=1).reshape(n, d)
    _write_trajectories(tmp_path / "new.csv", tags, steps, bubbles, finals)
    _trajectories_oracle(tmp_path / "oracle.csv", d, tags, steps, bubbles, finals)
    _assert_same_bytes(tmp_path, n)


@pytest.mark.parametrize("center, radius, max_level", [
    ([0.0, 0.0], 1.0, 6),
    ([0.3, -0.2], 2.5, 5),      # negative levels and indices
    ([0.0, 0.0, 0.0], 1.0, 4),
])
def test_whitney_csv_equals_the_per_row_writer(tmp_path, center, radius, max_level):
    domain = BallDomain(np.array(center), radius)
    cubes = decompose(domain, max_level)
    write_csv(tmp_path / "new.csv", cubes)
    _whitney_oracle(domain, cubes, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
