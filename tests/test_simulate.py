import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from scipy.spatial import cKDTree

from champagne import bubbles, rng, simulate, workers
from champagne.bubbles import (
    BubbleConfig,
    ConstantProfile,
    PowerProfile,
    generate_shell_config,
)
from champagne.geometry import BallDomain, row_norms
from champagne.harness import main
from champagne.rng import stable_vectors, stream_keys, uniform01
from champagne.simulate import (
    _WILSON_Z,
    HIT,
    SimParams,
    _percentile,
    _run_batch,
    _wilson_interval,
    estimate_hitting,
)
from champagne.spatial import BallIndex


@pytest.fixture(scope="module")
def disk_config():
    return generate_shell_config(BallDomain(np.zeros(2), 1.0), ConstantProfile(0.1), 0.5, 3, seed=3)


@pytest.fixture(scope="module")
def ball_config():
    return generate_shell_config(BallDomain(np.zeros(3), 1.0), ConstantProfile(0.3), 0.5, 2, seed=3)


PARAMS = SimParams(alpha=1.5, max_steps=800, n_traj=300, seed=11)


def _digest(outcomes):
    h = hashlib.sha256()
    for a in outcomes:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Outcomes pinned when the step became kappa*delta*phi(1 - delta/R); every
# rewrite of the step loop must reproduce them bit for bit.  Re-pinned when
# Kanter's factors took their own powers (only final positions moved, in
# their last bits), when the increments came to be drawn from the table of
# |xi|'s law with kappa from its exact median (every path moved), and when
# the step came to read the shell bands at kappa_b = kappa/2 (every path
# moved; the disk's timeouts fell from 74 to 2).
@pytest.mark.parametrize("config_name, counts, digest", [
    ("disk_config", {"hit": 296, "boundary": 2, "timeout": 2},
     "57177d047f1565f10e8027d504518df27fc6ab0c5fbfaac53f9284a92698d43f"),
    ("ball_config", {"hit": 287, "boundary": 6, "timeout": 7},
     "39dd49b20ad6e2d1733e6169f462842cd161d0805c16ade2ace8faf27d3feda0"),
], ids=["disk", "ball"])
def test_outcomes_reproduce_pinned_digests(request, config_name, counts, digest):
    config = request.getfixturevalue(config_name)
    est, outcomes = estimate_hitting(config.domain.center, config, config.meta["phi"],
                                     config.meta["a"], PARAMS)
    assert est.counts == counts
    assert _digest(outcomes) == digest


def test_outcomes_do_not_depend_on_the_worker_count(disk_config, monkeypatch):
    # Each worker runs a contiguous block of ids as one batch.
    params = SimParams(alpha=1.3, boundary_eps=0.05, max_steps=200, n_traj=30, seed=7)
    x0 = disk_config.domain.center
    phi = disk_config.meta["phi"]
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: cpus)
        forks.clear()
        runs.append(estimate_hitting(x0, disk_config, phi, 0.5, params))
        assert len(forks) == cpus - 1
    for est, outcomes in runs[1:]:
        assert est == runs[0][0]
        for a, b in zip(outcomes, runs[0][1]):
            assert np.array_equal(a, b)
    assert set(runs[0][1][0].tolist()) == {0, 1, 2}


@pytest.mark.parametrize("d", [2, 3])
def test_no_generator_draw_shares_a_key_with_a_simulator_draw(monkeypatch, d):
    # under one seed the shells draw from trajectory ids 2**63 + i and the
    # simulator from ids below n_traj, so no (key, counter) pair is drawn twice.
    # The d=2 lattice lookup replays the shells' draw for their rotations, so
    # it is built with the shells.
    params = SimParams(alpha=1.5, max_steps=50, n_traj=20, seed=3)
    drawn = set()

    def recording_uniform01(keys, counters):
        k, c = np.broadcast_arrays(np.asarray(keys, np.uint64), np.asarray(counters, np.uint64))
        drawn.update(zip(k.ravel().tolist(), c.ravel().tolist()))
        return uniform01(keys, counters)

    monkeypatch.setattr(rng, "uniform01", recording_uniform01)
    monkeypatch.setattr(bubbles, "uniform01", recording_uniform01)
    monkeypatch.setattr(workers, "_worker_count", lambda: 1)
    config = generate_shell_config(BallDomain(np.zeros(d), 1.0), ConstantProfile(0.3), 0.5, 2,
                                   seed=params.seed)
    assert config.index is not None
    generated = set(drawn)
    drawn.clear()
    estimate_hitting(config.domain.center, config, config.meta["phi"], config.meta["a"], params)
    assert len(generated) == 6 and len(drawn) > 1000
    assert generated.isdisjoint(drawn)
    assert {k for k, _ in generated}.isdisjoint(k for k, _ in drawn)


# the ball case stops at 250 steps, so that many of its 600 trajectories time
# out; the disk case runs 2,000, because about 1 in 200 ends at the boundary,
# and stops at 600 steps, so that 68 of them time out
@pytest.mark.parametrize("config_name, params", [
    ("disk_config", dataclasses.replace(PARAMS, max_steps=600, n_traj=2000)),
    ("ball_config", dataclasses.replace(PARAMS, max_steps=250, n_traj=600)),
], ids=["disk", "ball"])
def test_outcomes_do_not_depend_on_the_block_length(request, monkeypatch, config_name, params):
    # A pass over m running trajectories takes max(1, _BLOCK_DRAWS // m)
    # steps, at most _PASS_STEPS.  One step per pass, three steps per pass at
    # the start (more as trajectories end), passes of 1 and of 7 steps, and
    # the whole run in one pass must give the same six arrays: work past a
    # trajectory's outcome, suppressed proposals included, is discarded.
    config = request.getfixturevalue(config_name)
    n = params.n_traj
    runs = []
    for draws, cap in ((1, 256), (3 * n, 256), (params.max_steps * n, 1),
                       (params.max_steps * n, 7), (params.max_steps * n, params.max_steps)):
        monkeypatch.setattr(simulate, "_BLOCK_DRAWS", draws)
        monkeypatch.setattr(simulate, "_PASS_STEPS", cap)
        runs.append(_run_batch(config.domain.center, config, config.meta["phi"],
                               config.meta["a"], params, np.arange(n)))
    tags, _, _, _, _, suppressed = runs[0]
    counts = np.bincount(tags, minlength=3)
    assert counts.min() > 0 and counts[simulate.TIMEOUT] >= 30
    assert suppressed.sum() > 0
    for other in runs[1:]:
        for a, b in zip(other, runs[0]):
            assert np.array_equal(a, b)


def test_the_last_pass_ends_within_the_cap_of_the_longest_trajectory(monkeypatch, disk_config):
    # A pass starts only while a trajectory runs, and takes at most
    # _PASS_STEPS steps, so no draw lies _PASS_STEPS or more steps past the
    # longest trajectory's end.  Each pass asks stable_vectors for one step
    # range; the schedule of ranges follows from the steps alone: a
    # trajectory that ended at step e runs in every pass that starts at or
    # before e.
    asked = []

    def draw(alpha, d, keys, step, n_steps):
        asked.append((step, n_steps, keys.shape[0]))
        return stable_vectors(alpha, d, keys, step, n_steps)

    monkeypatch.setattr(simulate, "stable_vectors", draw)
    params = dataclasses.replace(PARAMS, max_steps=5000)
    tags, steps, _, _, _, _ = _run_batch(disk_config.domain.center, disk_config,
                                         disk_config.meta["phi"], disk_config.meta["a"],
                                         params, np.arange(params.n_traj))
    assert simulate.TIMEOUT not in tags
    schedule, start = [], 0
    while (steps >= start).any():
        m = int((steps >= start).sum())
        k = min(max(1, simulate._BLOCK_DRAWS // m), simulate._PASS_STEPS,
                params.max_steps - start)
        schedule.append((start, k, m))
        start += k
    assert asked == schedule
    longest = int(steps.max())
    last_start, last_k, _ = asked[-1]
    assert last_start <= longest < last_start + last_k <= longest + simulate._PASS_STEPS
    # the cap binds: without it the last pass, over the one trajectory left
    # at step 2,340, drew all 2,660 steps up to max_steps
    assert last_k == simulate._PASS_STEPS and asked[-1][2] == 1


def test_step_loop_draws_and_queries_once_per_block(monkeypatch, disk_config):
    # Counts calls, not time: a loop that draws or queries once per step
    # makes as many calls as the longest trajectory takes steps.
    calls = {"draw": 0, "query": 0}
    lookup = type(disk_config.index)
    contains_batch = lookup.contains_batch

    def draw(*args, **kwargs):
        calls["draw"] += 1
        return stable_vectors(*args, **kwargs)

    def query(self, x):
        calls["query"] += 1
        return contains_batch(self, x)

    monkeypatch.setattr(simulate, "stable_vectors", draw)
    monkeypatch.setattr(lookup, "contains_batch", query)
    # the counters live in this process: a forked worker's calls never reach them
    monkeypatch.setattr(workers, "_worker_count", lambda: 1)
    _, (_, steps, _, _) = estimate_hitting(disk_config.domain.center, disk_config,
                                           disk_config.meta["phi"], disk_config.meta["a"], PARAMS)
    lockstep_steps = int(steps.max())
    assert lockstep_steps == PARAMS.max_steps
    assert 1 <= calls["draw"] <= lockstep_steps / 20
    assert 2 <= calls["query"] <= lockstep_steps / 20 + 1  # +1: the check on x0


def test_lattice_lookup_answers_every_w2_query_as_the_ball_index(monkeypatch):
    # every point that a 4,000-path W2 run asks about, answered by the
    # lattice lookup and by a BallIndex over the same bubbles
    w2 = generate_shell_config(BallDomain(np.zeros(2), 1.0), ConstantProfile(0.1), 0.5, 6,
                               seed=35)
    lookup = w2.index
    assert isinstance(lookup, bubbles._ShellLookup)
    oracle = BallIndex(w2.centers, w2.radii)
    contains_batch = type(lookup).contains_batch
    asked = [0, 0]

    def query(self, x):
        got = contains_batch(self, x)
        want = oracle.contains_batch(x)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        asked[0] += x.shape[0]
        asked[1] += int(got[0].sum())
        return got

    monkeypatch.setattr(type(lookup), "contains_batch", query)
    monkeypatch.setattr(workers, "_worker_count", lambda: 1)
    params = SimParams(alpha=1.5, max_steps=5000, n_traj=4000, seed=35)
    est, _ = estimate_hitting(np.zeros(2), w2, w2.meta["phi"], w2.meta["a"], params)
    assert asked[0] > 500_000
    assert asked[1] >= est.counts["hit"] > 3900


@pytest.mark.parametrize("s", [2.0, 0.25])
def test_outcomes_are_covariant_under_power_of_two_dilation(s):
    # Every length the step rule, the boundary proxy and the ball index use
    # scales by s, delta/R does not change, and multiplying by a power of two
    # is exact, so dilating the whole run by s dilates each trajectory exactly.
    # A power profile makes the step depend on delta/R.
    phi = PowerProfile(1.0)
    config = generate_shell_config(BallDomain(np.zeros(2), 1.0), phi, 0.5, 3, seed=3)
    dom = config.domain
    scaled = BubbleConfig(BallDomain(dom.center * s, dom.radius * s),
                          config.centers * s, config.radii * s)
    params = dataclasses.replace(PARAMS, boundary_eps=0.01)
    scaled_params = dataclasses.replace(params, boundary_eps=params.boundary_eps * s)
    _, (tags, steps, bubbles, finals) = estimate_hitting(
        dom.center, config, phi, 0.5, params)
    _, (s_tags, s_steps, s_bubbles, s_finals) = estimate_hitting(
        dom.center * s, scaled, phi, 0.5, scaled_params)
    assert set(tags.tolist()) == {0, 1, 2}
    assert np.array_equal(s_tags, tags)
    assert np.array_equal(s_steps, steps)
    assert np.array_equal(s_bubbles, bubbles)
    assert np.array_equal(s_finals, finals * s)


@pytest.mark.parametrize("d, phi", [(2, ConstantProfile(0.1)), (3, ConstantProfile(0.3))],
                         ids=["d2", "d3"])
def test_nested_configurations_are_coupled_pathwise(d, phi):
    # The step rule never reads the bubbles, so with the same seed the paths
    # of shells 1-2 and of shells 1-3 coincide until the larger set is hit.
    outer = generate_shell_config(BallDomain(np.zeros(d), 1.0), phi, 0.5, 3, seed=5)
    keep = outer.shell_ids < 2
    inner = BubbleConfig(outer.domain, outer.centers[keep], outer.radii[keep],
                         shell_ids=outer.shell_ids[keep])
    params = SimParams(alpha=1.5, max_steps=1000, n_traj=1000, seed=5)
    x0 = outer.domain.center
    est_in, (tags_in, steps_in, bubbles_in, finals_in) = estimate_hitting(
        x0, inner, phi, 0.5, params)
    est_out, (tags_out, steps_out, bubbles_out, finals_out) = estimate_hitting(
        x0, outer, phi, 0.5, params)
    hit_in, hit_out = tags_in == HIT, tags_out == HIT
    assert est_out.counts["hit"] > est_in.counts["hit"] > 0
    # every hit of the subset is a hit of the superset, no later
    assert np.all(hit_out[hit_in])
    assert np.all(steps_out[hit_in] <= steps_in[hit_in])
    same_step = hit_in & (steps_out == steps_in)
    assert np.array_equal(bubbles_out[same_step], np.flatnonzero(keep)[bubbles_in[same_step]])
    # a path that misses the superset is the same path for the subset
    miss = ~hit_out
    assert np.array_equal(tags_in[miss], tags_out[miss])
    assert np.array_equal(steps_in[miss], steps_out[miss])
    assert np.array_equal(finals_in[miss], finals_out[miss])


def _killed_walk_on_spheres(config, alpha, x0, n, seed):
    """Hit indicators of the alpha-stable process killed on leaving D.

    From x, the largest ball B(x, rho) that meets neither a bubble nor the
    complement of D is left by a jump to distance rho/sqrt(beta) with
    beta ~ Beta(alpha/2, 1 - alpha/2), in a uniform direction
    (Blumenthal, Getoor & Ray, Trans. AMS 99, 1961).  The walk stops when it
    lands in a bubble (a hit) or outside D (killed); there is no
    discretisation.  The distance to the nearest bubble surface comes from
    one KD-tree per distinct radius.
    """
    rng = np.random.default_rng(seed)
    c, R = config.domain.center, config.domain.radius
    trees = [(cKDTree(config.centers[config.radii == r]), r) for r in np.unique(config.radii)]
    hit = np.zeros(n, dtype=bool)
    live = np.arange(n)
    x = np.tile(np.asarray(x0, dtype=float), (n, 1))
    while live.size:
        rho = R - row_norms(x, c)
        for tree, r in trees:
            rho = np.minimum(rho, tree.query(x)[0] - r)
        beta = rng.beta(alpha / 2.0, 1.0 - alpha / 2.0, size=live.size)
        u = rng.standard_normal(x.shape)
        u /= np.sqrt((u * u).sum(axis=1))[:, None]
        x = x + (rho / np.sqrt(beta))[:, None] * u
        inside = np.zeros(live.size, dtype=bool)
        for tree, r in trees:
            inside |= tree.query(x)[0] <= r
        hit[live[inside]] = True
        keep = ~inside & (row_norms(x, c) < R)
        live, x = live[keep], x[keep]
    return hit


def test_killed_hit_probability_matches_walk_on_spheres(disk_config):
    # Stopped at its first suppressed proposal, the chain estimates the hit
    # probability of the process killed on leaving D (Bogdan, Burdzy & Chen,
    # PTRF 127, 2003), which walk-on-spheres samples exactly; the gap is the
    # chain's discretisation bias.
    n, alpha = 8000, 1.5
    x0 = disk_config.domain.center
    params = SimParams(alpha=alpha, boundary_eps=1e-9, max_steps=3000, n_traj=n, seed=1)
    tags, steps, _, _, killed, suppressed = _run_batch(
        x0, disk_config, disk_config.meta["phi"], disk_config.meta["a"], params, np.arange(n))
    assert np.all((suppressed > 0) == (killed < params.max_steps))
    killed_hit = (tags == HIT) & (steps < killed)
    # neither hit nor suppressed within max_steps: counted as a miss
    undecided = int(((tags != HIT) & (killed == params.max_steps)).sum())
    assert undecided <= 0.01 * n
    p_chain = killed_hit.mean()
    p_wos = _killed_walk_on_spheres(disk_config, alpha, x0, n, seed=1).mean()
    sigma = np.sqrt(2.0 * p_wos * (1.0 - p_wos) / n)
    assert p_chain - 3.0 * sigma <= p_wos <= p_chain + undecided / n + 3.0 * sigma


@pytest.mark.parametrize("phi", [ConstantProfile(0.1), PowerProfile(1.0)],
                         ids=["constant", "power"])
@pytest.mark.parametrize("shell", [0, 1, 2], ids=["shell1", "shell2", "shell3"])
def test_killed_hit_probability_of_one_shell_matches_walk_on_spheres(request, monkeypatch, phi,
                                                                      shell):
    # One shell alone, stepped by the bands of the whole closed-form family:
    # hits in other shells cannot make up for missed ones, as they can in
    # the whole-family test.  A path that passes the shell by takes many
    # small steps near the boundary before a suppressed proposal decides it,
    # so the run is long; it is split between two forked workers.
    if isinstance(phi, PowerProfile) and shell == 2:
        # inside a band of phi = (1 - t) the step is kappa_b*delta**2: 10 % of
        # the paths are undecided at max_steps, and the decided ones read
        # 0.031 (4.5 sigma) low (see the FOUND entries of CHANGES.md)
        request.applymarker(pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason="deep shell of a decaying profile"))
    family = generate_shell_config(BallDomain(np.zeros(2), 1.0), phi, 0.5, 3, seed=3)
    keep = family.shell_ids == shell
    single = BubbleConfig(family.domain, family.centers[keep], family.radii[keep])
    n, alpha = 8000, 1.5
    x0 = family.domain.center
    params = SimParams(alpha=alpha, boundary_eps=1e-9, max_steps=10_000, n_traj=n, seed=1)
    monkeypatch.setattr(workers, "_worker_count", lambda: 2)
    tags, steps, _, _, killed, _ = simulate._run_forked(x0, single, phi, 0.5, params)
    killed_hit = (tags == HIT) & (steps < killed)
    undecided = int(((tags != HIT) & (killed == params.max_steps)).sum())
    assert undecided <= 0.07 * n
    p_chain = killed_hit.mean()
    p_wos = _killed_walk_on_spheres(single, alpha, x0, n, seed=1).mean()
    sigma = np.sqrt(2.0 * p_wos * (1.0 - p_wos) / n)
    assert p_chain - 3.0 * sigma <= p_wos <= p_chain + undecided / n + 3.0 * sigma


def test_estimate_reports_simulator_diagnostics(disk_config):
    # shell 3 of the disk has delta in [0.0167, 0.0204], below boundary_eps;
    # 1,000 paths, because only a few in a thousand land in it
    params = SimParams(alpha=1.5, boundary_eps=0.03, max_steps=400, n_traj=1000, seed=2)
    est, (tags, steps, bubbles, finals) = estimate_hitting(
        disk_config.domain.center, disk_config, disk_config.meta["phi"], disk_config.meta["a"],
        params)
    diag = est.to_json()["diagnostics"]
    assert set(est.counts) == {"hit", "boundary", "timeout"}
    assert diag["shells_below_boundary_eps"] == 1
    assert diag["shells_below_boundary_eps_list"] == [3]
    assert diag["hits_per_shell"] == np.bincount(
        disk_config.shell_ids[bubbles[tags == HIT]], minlength=3).tolist()
    assert sum(diag["hits_per_shell"]) == est.counts["hit"] > 0
    # a landing in a shell-3 bubble is also within boundary_eps: the hit wins
    assert diag["hits_per_shell"][2] > 0
    assert 0.0 < diag["suppressed_fraction"] < 1.0
    assert diag["steps_p50"] <= diag["steps_p90"] <= diag["steps_p99"] <= params.max_steps
    assert diag["steps_p50"] == float(np.median(steps))
    # how deep the timed-out paths ended
    timed_out = tags == simulate.TIMEOUT
    depth = 1.0 - row_norms(finals[timed_out], disk_config.domain.center)
    assert timed_out.sum() >= 10
    assert diag["timeout_delta_min"] == float(depth.min())
    assert diag["timeout_delta_median"] == float(np.percentile(depth, 50))
    assert params.boundary_eps <= diag["timeout_delta_min"] < diag["timeout_delta_median"]
    # with boundary_eps below every shell the list is empty; without a
    # timeout the depths are None
    est, (tags, _, _, _) = estimate_hitting(
        disk_config.domain.center, disk_config, disk_config.meta["phi"], disk_config.meta["a"],
        dataclasses.replace(params, boundary_eps=1e-3, max_steps=5000, n_traj=20))
    assert est.diagnostics["shells_below_boundary_eps"] == 0
    assert est.diagnostics["shells_below_boundary_eps_list"] == []
    assert simulate.TIMEOUT not in tags
    assert est.to_json()["diagnostics"]["timeout_delta_min"] is None
    assert est.to_json()["diagnostics"]["timeout_delta_median"] is None


@pytest.mark.parametrize("first_failing, error", [(10, RuntimeError), (0, ArithmeticError)],
                         ids=["worker", "parent"])
def test_a_block_failure_raises_here_and_leaves_no_child(disk_config, monkeypatch, tmp_path,
                                                         capsys, first_failing, error):
    # Trajectories 0..9 run in this process, 10..19 in the forked worker; the
    # failing block's exception reaches the caller with its message, and the
    # worker is reaped (killed first, when this process's block fails).
    run_batch = simulate._run_batch

    def failing(x0, config, phi, a, params, traj_ids):
        if traj_ids[0] >= first_failing:
            raise ArithmeticError("block failed on purpose")
        return run_batch(x0, config, phi, a, params, traj_ids)

    monkeypatch.setattr(simulate, "_run_batch", failing)
    monkeypatch.setattr(workers, "_worker_count", lambda: 2)
    params = SimParams(alpha=1.5, max_steps=50, n_traj=20, seed=1)
    with pytest.raises(error, match="block failed on purpose"):
        estimate_hitting(disk_config.domain.center, disk_config, disk_config.meta["phi"],
                         disk_config.meta["a"], params)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    cfg = tmp_path / "run_config.json"
    cfg.write_text(json.dumps({
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "constants": {"alpha": 1.5},
        "profile": {"kind": "constant", "c": 0.1},
        "shells": {"a": 0.5, "count": 3, "seed": 3},
        "sim": {"alpha": 1.5, "max_steps": 50, "n_traj": 20, "seed": 1},
    }))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    assert "block failed on purpose" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_percentile_equals_numpys_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(2000):
        n = int(rng.integers(1, 50))
        steps = rng.integers(0, 10 ** int(rng.integers(1, 12)), n)
        depths = rng.random(n) * 10.0 ** -int(rng.integers(0, 12))
        for a in (steps, depths):
            for q in (50, 90, 99, 0, 100, 37.5):
                got, want = _percentile(a, q), np.percentile(a, q)
                assert got == want and np.signbit(got) == np.signbit(want), (a, q)


def test_alpha_near_two_raises_on_a_non_finite_draw(disk_config, monkeypatch):
    # Every alpha in (1, 2) draws finitely, so a non-finite increment is
    # planted in one row: such a proposal would fail norm < R and count as
    # suppressed, biasing the estimate silently.
    params = SimParams(alpha=1.99, max_steps=50, n_traj=40, seed=1)
    keys = stream_keys(params.seed, np.arange(params.n_traj))
    assert np.isfinite(stable_vectors(1.99, 2, keys, 0, 50)).all()

    def planted(*args):
        xi = stable_vectors(*args)
        xi[xi.shape[0] // 2, 0] = np.inf
        return xi

    monkeypatch.setattr(simulate, "stable_vectors", planted)
    with pytest.raises(FloatingPointError, match="not finite"):
        _run_batch(disk_config.domain.center, disk_config, disk_config.meta["phi"],
                   disk_config.meta["a"], params, np.arange(params.n_traj))


def test_x0_inside_a_bubble_raises(disk_config):
    params = SimParams(alpha=1.5, max_steps=10, n_traj=4)
    with pytest.raises(ValueError, match="inside a bubble"):
        estimate_hitting(disk_config.centers[0], disk_config, disk_config.meta["phi"],
                         disk_config.meta["a"], params)


def test_bands_of_another_family_raise(disk_config):
    # The step reads the bands of the (a, phi) it is given; a configuration
    # that records another (a, phi) would be stepped by the wrong bands.
    params = SimParams(alpha=1.5, max_steps=10, n_traj=4)
    x0 = disk_config.domain.center
    with pytest.raises(ValueError, match="phi"):
        estimate_hitting(x0, disk_config, ConstantProfile(0.2), 0.5, params)
    with pytest.raises(ValueError, match="a=0.25"):
        estimate_hitting(x0, disk_config, disk_config.meta["phi"], 0.25, params)
    # a family without a record, such as a subset, runs on the bands it is given
    bare = BubbleConfig(disk_config.domain, disk_config.centers, disk_config.radii)
    est, _ = estimate_hitting(x0, bare, ConstantProfile(0.2), 0.25, params)
    assert est.n == 4


def test_the_band_table_lists_at_most_max_bands_shells(monkeypatch, disk_config):
    # As a -> 0 about log(eps/R)/log q shells start below R - eps, with
    # q = (1 - a)/(1 + a): 1.4e4 here, 3.5e9 at a = 1e-9 and eps = 1e-3.
    # Past the cap the last listed band reaches R, so the capped gap is -inf
    # there and equals the full table's gap before that band starts.
    phi, a, eps = PowerProfile(1.0), 1e-3, 1e-12

    def gap(table, rho):
        edges, below, above = table
        j = edges.searchsorted(rho, side="right")
        return np.minimum(rho - below[j], above[j] - rho)

    capped = simulate._band_table(1.0, eps, phi, a)
    monkeypatch.setattr(simulate, "_MAX_BANDS", 10 ** 5)
    full = simulate._band_table(1.0, eps, phi, a)
    monkeypatch.undo()
    assert capped[0].size <= 2 * simulate._MAX_BANDS < full[0].size
    assert capped[0][-1] == 1.0
    tail = capped[0][-2]
    t = simulate.shell_radii(a, simulate._MAX_BANDS)[-1]
    assert tail == t - (1.0 - t) * phi(t)
    rho = np.linspace(0.0, 1.0 - eps, 200_001)
    g, g_full = gap(capped, rho), gap(full, rho)
    assert np.array_equal(g[rho < tail], g_full[rho < tail])
    assert np.all(g[rho >= tail] == -np.inf) and np.any(g_full[rho >= tail] > 0.0)
    # tiny a runs: the table is built in every block and forked worker; at
    # a = 1e-17, q = (1 - a)/(1 + a) rounds to 1
    bare = BubbleConfig(disk_config.domain, disk_config.centers, disk_config.radii)
    params = SimParams(alpha=1.5, max_steps=50, n_traj=20, seed=1)
    for tiny in (1e-9, 1e-17):
        est, _ = estimate_hitting(disk_config.domain.center, bare, ConstantProfile(0.1), tiny,
                                  params)
        assert est.n == 20


def test_x0_within_boundary_eps_ends_at_once(disk_config):
    params = SimParams(alpha=1.5, boundary_eps=1e-3, max_steps=10, n_traj=5)
    x0 = np.array([1.0 - 5e-4, 0.0])
    est, (tags, steps, bubbles, finals) = estimate_hitting(
        x0, disk_config, disk_config.meta["phi"], disk_config.meta["a"], params)
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
    """stable_vectors with a new array for every operation: log R from the
    table's cubic at x = log(u)/d - log(1 - u)/alpha, x clamped to the table
    and slope 1 beyond it; the height 1 - 2w in d=3; and (cos, sin) of the
    last quarter turn of the angle times r i**k, written out in reals."""
    law = rng.radial_law(d, alpha)
    base = np.uint64(step) * np.uint64(d)
    u = _uniform01_reference(keys, base)
    x = np.log(u) * (1.0 / d) + np.log(1.0 - u) * (-1.0 / alpha)
    clamped = np.clip(x, law._x0, law._x1)
    at = (clamped - law._x0) * (1.0 / rng._X_STEP)
    i = np.minimum(at.astype(np.intp), law._pieces - 1)
    t = at - i
    c0, c1, c2, c3 = law._coef
    r = np.exp((x - clamped) + (((c3[i] * t + c2[i]) * t + c1[i]) * t + c0[i]))
    out = np.empty((keys.shape[0], d))
    if d == 3:
        w = _uniform01_reference(keys, base + np.uint64(1))
        out[:, 2] = (w * -2.0 + 1.0) * r
        r = (r * 2.0) * np.sqrt(w * (1.0 - w))
    v = _uniform01_reference(keys, base + np.uint64(d - 1)) * 4.0
    k = v.astype(np.intp)
    angle = (v - k) * (0.5 * np.pi)
    cos, sin = np.cos(angle), np.sin(angle)
    a = np.array([1.0, 0.0, -1.0, 0.0])[k] * r
    b = np.array([0.0, 1.0, 0.0, -1.0])[k] * r
    out[:, 0] = cos * a - sin * b
    out[:, 1] = cos * b + sin * a
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 1.99])
def test_stable_vectors_match_the_reference_bit_for_bit(d, alpha):
    keys = stream_keys(17, np.arange(20_000))
    for step in (0, 1, 4_999):
        assert np.array_equal(stable_vectors(alpha, d, keys, step),
                              _stable_vectors_reference(alpha, d, keys, step))
    # a block of steps is its steps drawn one at a time, step-major
    m, first, k = 2_000, 4_997, 3
    block = stable_vectors(alpha, d, keys[:m], first, k)
    assert block.shape == (k * m, d)
    for s in range(k):
        assert np.array_equal(block[s * m:(s + 1) * m],
                              _stable_vectors_reference(alpha, d, keys[:m], first + s))
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
    est, _ = estimate_hitting(disk_config.domain.center, disk_config, disk_config.meta["phi"],
                              disk_config.meta["a"], params)
    out = est.to_json()
    assert "ci_halfwidth" not in out
    assert (out["ci_lo"], out["ci_hi"]) == _wilson_interval(est.counts["hit"], 20)
