import dataclasses
import hashlib

import numpy as np
import pytest

from champagne.bubbles import BubbleConfig, ConstantProfile, generate_shell_config
from champagne.geometry import BallDomain
from champagne.rng import stable_vectors, stream_keys, uniform01
from champagne.simulate import (
    _WILSON_Z,
    SimParams,
    _wilson_interval,
    estimate_hitting,
    run_trajectory,
)


@pytest.fixture(scope="module")
def disk_config():
    return generate_shell_config(BallDomain(np.zeros(2), 1.0), ConstantProfile(0.1), 0.5, 3, seed=3)


@pytest.fixture(scope="module")
def ball_config():
    return generate_shell_config(BallDomain(np.zeros(3), 1.0), ConstantProfile(0.3), 0.5, 2, seed=3)


ADAPTIVE = SimParams(alpha=1.5, max_steps=800, n_traj=300, seed=11)
FIXED = SimParams(alpha=1.3, max_steps=800, n_traj=300, seed=11, adaptive=False, jump_scale=0.01)


def _digest(outcomes):
    h = hashlib.sha256()
    for a in outcomes:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Outcomes pinned from the simulator before its step loop was compacted; every
# rewrite of the loop must reproduce them bit for bit.
@pytest.mark.parametrize("config_name, params, counts, digest", [
    ("disk_config", ADAPTIVE, {"hit": 45, "boundary": 2, "timeout": 253},
     "8200816ed093e946d7bafe90dbd8aba8d8b49a34e26e840d713979affc3c004e"),
    ("disk_config", FIXED, {"hit": 292, "boundary": 5, "timeout": 3},
     "fb877072e60835c55b57bcd5b7a5aba2df6a2cbe4c819349291580fd4d71debd"),
    ("ball_config", ADAPTIVE, {"hit": 214, "boundary": 7, "timeout": 79},
     "a41ef17633046b84f4e534732025543eef59017f16e37dc77769355670c72c1e"),
    ("ball_config", FIXED, {"hit": 292, "boundary": 7, "timeout": 1},
     "fd9e05ffdc9e94ba27fa2edc7ba0105a54d69128e78c5934e03f0d5a1dbed394"),
])
def test_outcomes_reproduce_pinned_digests(request, config_name, params, counts, digest):
    config = request.getfixturevalue(config_name)
    est, outcomes = estimate_hitting(config.domain.center, config, params, return_outcomes=True)
    assert est.counts == counts
    assert _digest(outcomes) == digest


def test_outcomes_do_not_depend_on_the_batch(disk_config):
    params = SimParams(alpha=1.3, max_steps=300, n_traj=30, seed=7, adaptive=False,
                       jump_scale=0.02)
    x0 = disk_config.domain.center
    runs = [estimate_hitting(x0, disk_config, params, batch=b, return_outcomes=True)
            for b in (1, 7, 4096)]
    for est, outcomes in runs[1:]:
        assert est == runs[0][0]
        for a, b in zip(outcomes, runs[0][1]):
            assert np.array_equal(a, b)
    tags, steps, bubbles, finals = runs[0][1]
    # one trajectory of each outcome, run alone, matches its row of the batch
    for tag in (0, 1, 2):
        traj = int(np.flatnonzero(tags == tag)[0])
        one = run_trajectory(x0, disk_config, params, traj=traj)
        assert one.tag == ("hit", "boundary", "timeout")[tag]
        assert one.step == steps[traj]
        assert one.bubble == (bubbles[traj] if tag == 0 else None)
        assert np.array_equal(one.final_point, finals[traj])


@pytest.mark.parametrize("params", [ADAPTIVE, FIXED], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("s", [2.0, 0.25])
def test_outcomes_are_covariant_under_power_of_two_dilation(disk_config, params, s):
    # Every length the step rule, the boundary proxy and the ball index use
    # scales by s, and multiplying by a power of two is exact, so dilating
    # the whole run by s dilates each trajectory exactly.
    dom = disk_config.domain
    scaled = BubbleConfig(BallDomain(dom.center * s, dom.radius * s),
                          disk_config.centers * s, disk_config.radii * s)
    scaled_params = dataclasses.replace(
        params, boundary_eps=params.boundary_eps * s,
        jump_scale=None if params.jump_scale is None else params.jump_scale * s)
    _, (tags, steps, bubbles, finals) = estimate_hitting(
        dom.center, disk_config, params, return_outcomes=True)
    _, (s_tags, s_steps, s_bubbles, s_finals) = estimate_hitting(
        dom.center * s, scaled, scaled_params, return_outcomes=True)
    assert np.array_equal(s_tags, tags)
    assert np.array_equal(s_steps, steps)
    assert np.array_equal(s_bubbles, bubbles)
    assert np.array_equal(s_finals, finals * s)


def test_x0_inside_a_bubble_raises(disk_config):
    params = SimParams(alpha=1.5, max_steps=10, n_traj=4)
    with pytest.raises(ValueError, match="inside a bubble"):
        estimate_hitting(disk_config.centers[0], disk_config, params)


def test_x0_within_boundary_eps_ends_at_once(disk_config):
    params = SimParams(alpha=1.5, boundary_eps=1e-3, max_steps=10, n_traj=5)
    x0 = np.array([1.0 - 5e-4, 0.0])
    est, (tags, steps, bubbles, finals) = estimate_hitting(
        x0, disk_config, params, return_outcomes=True)
    assert est.counts == {"hit": 0, "boundary": 5, "timeout": 0}
    assert np.all(steps == 0) and np.all(bubbles == -1)
    assert np.array_equal(finals, np.tile(x0, (5, 1)))


def _uniform01_reference(keys, counter):
    counter = np.asarray(counter, dtype=np.uint64)
    x = (keys + counter * np.uint64(0x9E3779B97F4A7C15)).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _stable_vectors_reference(alpha, d, keys, step):
    """stable_vectors as first written, with a new array for every operation."""
    base = np.uint64(step) * np.uint64(2 + 2 * ((d + 1) // 2))
    u = _uniform01_reference(keys, base)
    w = -np.log(_uniform01_reference(keys, base + np.uint64(1)))
    rho = alpha / 2.0
    theta = np.pi * u
    a = (np.sin(rho * theta) ** (rho / (1.0 - rho)) * np.sin((1.0 - rho) * theta)
         / np.sin(theta) ** (1.0 / (1.0 - rho)))
    s = (a / w) ** ((1.0 - rho) / rho)
    pairs = (d + 1) // 2
    z = np.empty((keys.shape[0], 2 * pairs))
    for p in range(pairs):
        u1 = _uniform01_reference(keys, base + np.uint64(2) + np.uint64(2 * p))
        u2 = _uniform01_reference(keys, base + np.uint64(2) + np.uint64(2 * p + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        z[:, 2 * p] = r * np.cos(ang)
        z[:, 2 * p + 1] = r * np.sin(ang)
    return np.sqrt(2.0 * s)[:, None] * z[:, :d]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_stable_vectors_match_the_reference_bit_for_bit(d, alpha):
    keys = stream_keys(17, np.arange(20_000))
    for step in (0, 1, 4_999):
        assert np.array_equal(stable_vectors(alpha, d, keys, step),
                              _stable_vectors_reference(alpha, d, keys, step))
    assert np.array_equal(uniform01(keys, np.uint64(3)), _uniform01_reference(keys, np.uint64(3)))


def test_wilson_interval_for_no_hits_and_all_hits():
    z2 = _WILSON_Z**2
    lo, hi = _wilson_interval(0, 100)
    assert lo == 0.0 and hi == pytest.approx(z2 / (100 + z2), rel=1e-12)
    assert hi == pytest.approx(0.036994, abs=1e-6)  # not the 0 +- 0.0185 of p_hat +- half-width
    lo, hi = _wilson_interval(100, 100)
    assert hi == 1.0 and lo == pytest.approx(100 / (100 + z2), rel=1e-12)


def test_wilson_interval_contains_p_hat_and_mirrors():
    n = 37
    for hits in range(n + 1):
        lo, hi = _wilson_interval(hits, n)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0
        mlo, mhi = _wilson_interval(n - hits, n)
        assert lo == pytest.approx(1.0 - mhi, abs=1e-12)
        assert hi == pytest.approx(1.0 - mlo, abs=1e-12)


def test_estimate_reports_the_interval_bounds(disk_config):
    params = SimParams(alpha=1.5, max_steps=50, n_traj=20, seed=1)
    est = estimate_hitting(disk_config.domain.center, disk_config, params)
    out = est.to_json()
    assert "ci_halfwidth" not in out
    assert (out["ci_lo"], out["ci_hi"]) == _wilson_interval(est.counts["hit"], 20)
