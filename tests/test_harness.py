import csv
import gc
import hashlib
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import champagne
from champagne import criteria, harness, rng, whitney, workers
from champagne.harness import RunConfig, main
from champagne.bubbles import _ShellLookup
from champagne.spatial import BallIndex

SMALL = {
    "domain": {"center": [0.0, 0.0], "radius": 1.0},
    "constants": {"alpha": 1.3},
    "profile": {"kind": "constant", "c": 0.1},
    "shells": {"a": 0.5, "count": 3, "seed": 7},
    "whitney": {"max_level": 6},
    "criteria": {"grid": 4, "wiener_n_max": 24},
}


def _write_config(tmp_path, obj):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# a d=3 case: 2 shells, with shell 1 above the collar and shell 2 below it
D3 = {
    **SMALL,
    "domain": {"center": [0.0, 0.0, 0.0], "radius": 1.0},
    "profile": {"kind": "constant", "c": 0.3},
    "shells": {"a": 0.5, "count": 2, "seed": 7},
    "whitney": {"max_level": 5},
}


def _assert_criteria_outputs(tmp_path, monkeypatch, obj, verdicts, wiener_trace, empirical):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    harness.cmd_criteria(RunConfig.from_json(obj), tmp_path)
    assert _sha256(tmp_path / "verdicts.json") == verdicts
    assert _sha256(tmp_path / "wiener_trace.csv") == wiener_trace
    manifest = json.loads((tmp_path / "manifest.criteria.json").read_text())
    assert manifest["empirical"] == empirical


def test_cmd_criteria_reproduces_pinned_outputs(tmp_path, monkeypatch):
    # Outputs of the per-ball implementation that built the cube-bubble map
    # once per sum; the closed-form incidence must reproduce them bit for bit
    # (verdicts.json re-pinned when it came to state its one verdict once,
    # and when the weight M left its tail model; wiener_trace.csv and the
    # quasi-additivity interval re-pinned when the Wiener and
    # quasi-additivity sums came to add their cubes in cube order, which
    # moved their last bits; verdicts.json re-pinned when the config's
    # capacity constant C = 2 went, which the Aikawa totals carried, to the
    # digest that C = 1 gave; wiener_trace.csv and the interval re-pinned
    # when g became its comparison function, without the factor of 8 each
    # way that g^2 carried into every term; verdicts.json re-pinned when its
    # whitney section lost n_cubes, the count of a decomposition walk that
    # the criteria stage no longer makes, and nothing else moved; and when
    # separation became the least closed-form shell ratio, beside
    # separation_per_shell and a note, and nothing else moved; and when the
    # run's counts moved from each Aikawa entry's n_cubes and warning strings
    # to the whitney section, once and as numbers, and nothing else moved).
    _assert_criteria_outputs(
        tmp_path, monkeypatch, SMALL,
        "283a10e7fc99e7d778bed7fbfd45133ab158639721dcab8ea1a50cb30400a9e3",
        "65ba5d414752abe8d7a6eb19f12a4b5d820f2c661d9c34282ff387fa46dd146b",
        {"c2_cubes_per_ball": 4,
         "C1_ratio_bound": 1.900247054885668,
         "quasi_additivity_interval": [0.3964674451197798, 1.8319985597413477]})


def test_cmd_criteria_reproduces_pinned_outputs_in_d3(tmp_path, monkeypatch):
    # Outputs of the incidence that looked each box up in the decomposition;
    # the closed-form incidence must reproduce them bit for bit
    # (verdicts.json re-pinned when it came to state its one verdict once,
    # and when the weight M left its tail model; wiener_trace.csv and the
    # quasi-additivity interval re-pinned when the Wiener and
    # quasi-additivity sums came to add their cubes in cube order;
    # verdicts.json re-pinned when the config's capacity constant C = 2
    # went, to the digest that C = 1 gave; wiener_trace.csv and the
    # interval re-pinned when g became its comparison function, without
    # the factor of 16 each way that g^2 carried into every term;
    # verdicts.json re-pinned when its whitney section lost n_cubes, the
    # count of a decomposition walk that the criteria stage no longer
    # makes, and nothing else moved; when separation became the least
    # closed-form shell ratio, beside separation_per_shell and a note, and
    # nothing else moved; and when the run's counts moved from each Aikawa
    # entry's n_cubes and warning strings to the whitney section, once and
    # as numbers, and nothing else moved).
    _assert_criteria_outputs(
        tmp_path, monkeypatch, D3,
        "a9c135fe0e2f4267199a7d182190c79709e39802eb7fe38e4a95200a410335a5",
        "8cbb7ee4f6a6a0206938d0f44925c7b1977a4fb5c3e09be4bcac484d8936d72b",
        {"c2_cubes_per_ball": 38,
         "C1_ratio_bound": 2.5394803189929083,
         "quasi_additivity_interval": [0.024033506185099862, 14.95196411925079]})


def test_cmd_criteria_never_calls_the_per_ball_loop(tmp_path, monkeypatch):
    # the sums run over the incidence alone: the criteria stage neither
    # loops over the bubbles one at a time nor walks the Whitney
    # decomposition, which only the whitney stage lists
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(whitney, "intersecting_cubes", forbidden("intersecting_cubes"))
    monkeypatch.setattr(criteria, "intersecting_cubes", forbidden("intersecting_cubes"))
    monkeypatch.setattr(whitney, "_walk", forbidden("whitney._walk"))
    harness.cmd_criteria(RunConfig.from_json(SMALL), tmp_path)
    traces = json.loads((tmp_path / "verdicts.json").read_text())["traces"]
    assert len(traces["aikawa_total"]) == 4


def test_outputs_do_not_depend_on_an_earlier_generate(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = RunConfig.from_json({**SMALL, "sim": {"alpha": 1.3, "max_steps": 50, "n_traj": 20,
                                                "seed": 3}})
    after_generate, fresh = tmp_path / "after_generate", tmp_path / "fresh"
    harness.cmd_generate(cfg, after_generate)
    for run in (after_generate, fresh):
        harness.cmd_criteria(cfg, run)
        harness.cmd_simulate(cfg, run)
    for name in ("verdicts.json", "wiener_trace.csv", "estimate.json"):
        assert (after_generate / name).read_bytes() == (fresh / name).read_bytes(), name


# the roadmap's W2 bubbles: the unit disk, 6 shells, 54,743 bubbles
W2 = {**SMALL, "constants": {"alpha": 1.5}, "shells": {"a": 0.5, "count": 6, "seed": 35}}
MiB = 2**20


def test_stage_start_up_holds_little_beyond_what_it_keeps():
    # tracemalloc counts numpy's buffers, so these bounds do not depend on the
    # host's allocator.  W2's configuration keeps its centres, radii, shell ids
    # and distances to the boundary (1.9 MiB) and, in the simulate stage, its
    # lattice lookup, a few numbers a shell; the build and the lookup's check
    # of every centre need besides only blocks of rows (0.5 MiB at most).
    # The table of |xi|'s law keeps about 1,500 cubic pieces (50 KiB) and
    # holds blocks of its Fourier sums and a few columns of 1,500 values;
    # the 2^16 draws of the sampled median it replaced held 0.8 MiB.
    harness._build_config(RunConfig.from_json(SMALL))  # first-use imports and caches
    rng.radial_law.__wrapped__(2, 1.3)
    tracemalloc.start()
    try:
        config = harness._build_config(RunConfig.from_json(W2))
        assert config.index is not None
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        law = rng.radial_law.__wrapped__(2, 1.5)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.n == 54_743
    assert build_peak - kept < 2 * MiB
    assert law.median > 0.0
    assert table_peak - kept < 0.5 * MiB


def test_criteria_sums_hold_little_beyond_the_configuration():
    # The Whitney half of the criteria stage on W2 at the benchmark's
    # max_level 8: the incidence and every sum at 4 grid points.
    # It holds one level's pairs, blocks of rows and one count per bubble
    # (1.2 MiB by tracemalloc); holding the whole incidence and passing over
    # it once per point took 5.2.  The sums keep running totals and no
    # per-cube term, so 32 grid points peak within 0.1 MiB of 4 (keeping
    # each point's Wiener terms per cube until the last level went 1.43 ->
    # 1.78 MiB).  The result keeps arrays per point and shell and counts
    # the 52,012 bubbles below the collar: 0.007 MiB at 4 points, where a
    # trace per point, with the ids of those bubbles, kept 0.41.
    def sums(obj):
        cfg = RunConfig.from_json(obj)
        config = harness._build_config(cfg)
        points = criteria.uniform_boundary_grid(cfg.domain, cfg.grid_size)
        tracemalloc.start()
        try:
            out = criteria.whitney_sums(config, points, cfg.alpha, cfg.whitney_max_level,
                                        cfg.wiener_n_max)
            out.quasi_additivity()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return config, out, kept, peak

    sums(SMALL)  # first-use imports and caches
    w2 = {**W2, "whitney": {"max_level": 8}}
    config, out, kept, peak = sums(w2)
    assert config.n == 54_743
    assert out.n_uncovered == 52_012
    assert kept < 0.05 * MiB
    assert peak < 2.5 * MiB
    *_, peak_32 = sums({**w2, "criteria": {"grid": 32, "wiener_n_max": 24}})
    assert abs(peak_32 - peak) < 0.1 * MiB


def test_main_returns_0_on_a_valid_run(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "bubbles.csv").exists()


@pytest.mark.parametrize("obj", [SMALL, W2], ids=["small", "w2"])
def test_criteria_at_a_shallow_max_level_writes_its_verdict(tmp_path, obj):
    # at max_level 2 and 3 no Whitney cube meets a bubble, so every sum is 0
    # and the quasi-additivity interval has no positive lower bound: the run
    # writes null for it, and the verdict and series, which read no Whitney
    # sum, are those of the default level
    runs = {}
    for level in (obj["whitney"]["max_level"], 2, 3):
        cfg = _write_config(tmp_path, {**obj, "whitney": {"max_level": level}})
        assert main(["criteria", "--config", cfg, "--out", str(tmp_path / str(level))]) == 0
        verdicts = json.loads((tmp_path / str(level) / "verdicts.json").read_text())
        manifest = json.loads((tmp_path / str(level) / "manifest.criteria.json").read_text())
        runs[level] = verdicts, manifest["empirical"]["quasi_additivity_interval"]
    (want, qa), *shallow = runs.values()
    assert want["whitney"]["n_cubes"] > 0 and len(qa) == 2
    n_bubbles = harness._build_config(RunConfig.from_json(obj)).n
    for verdicts, qa in shallow:
        assert (verdicts["whitney"]["n_cubes"], verdicts["whitney"]["n_uncovered"], qa) \
            == (0, n_bubbles, None)
        for key in ("aggregate", "verdict", "per_z", "separation_per_shell", "notes"):
            assert verdicts[key] == want[key], key
    assert want["aggregate"] == "unavoidable"


@pytest.mark.parametrize("command", ["generate", "whitney", "criteria", "simulate"])
def test_a_malformed_source_date_epoch_exits_2_before_any_output(tmp_path, capsys,
                                                                  monkeypatch, command):
    cfg = _write_config(tmp_path, {**SMALL, "sim": {"alpha": 1.3, "max_steps": 50,
                                                    "n_traj": 20, "seed": 3}})
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "SOURCE_DATE_EPOCH must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_main_returns_2_on_a_config_missing_profile(tmp_path, capsys):
    obj = {k: v for k, v in SMALL.items() if k != "profile"}
    cfg = _write_config(tmp_path, obj)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "profile" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [[1, 2], "x"])
def test_main_returns_2_on_a_config_that_is_not_an_object(tmp_path, capsys, obj):
    cfg = _write_config(tmp_path, obj)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"invalid config: config must be an object, got {obj!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change, message", [
    ({"sim": {"alpha": 1.5, "max_steps": 50, "n_traj": 20}}, "differs from constants.alpha"),
    ({"constants": {"alpha": 1.3, "C_M": 1.5}}, "C_M"),
    ({"constants": {"alpha": 1.3, "C_H": 1.0}}, "C_H"),
    ({"constants": {"alpha": 1.3, "C_1": 1.25}}, "C_1"),
    # the comparison functions are the kernels: no Green or capacity constant
    ({"constants": {"alpha": 1.3, "C": 2.0}}, "unknown field(s) in constants: C"),
    ({"constants": {"alpha": 1.3, "C_G": 1.0}}, "unknown field(s) in constants: C_G"),
])
def test_main_returns_2_on_a_sim_alpha_mismatch_or_a_removed_constant(
    tmp_path, capsys, change, message
):
    cfg = _write_config(tmp_path, {**SMALL, **change})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("shells, argv, message", [
    ({"seed": -1}, [], "shells.seed must be a non-negative integer, got -1"),
    ({}, ["--seed", "-1"], "shells.seed must be a non-negative integer, got -1"),
    ({"count": 0}, [], "shells.count must be >= 1, got 0"),
    ({"a": 1.5}, [], "shells.a must lie in (0, 1), got 1.5"),
    ({"count": 2.7}, [], "shells.count must be an integer, got 2.7"),
    ({"seed": "7"}, [], "shells.seed must be an integer, got '7'"),
    ({"cout": 3}, [], "unknown field(s) in shells: cout"),
    ({"seed": 2**64}, [], f"shells.seed must be a non-negative integer, got {2**64}"),
    ({}, ["--seed", str(2**64)], f"shells.seed must be a non-negative integer, got {2**64}"),
    ({"a": "0.5"}, [], "shells.a must be a number, got '0.5'"),
    ({"a": True}, [], "shells.a must be a number, got True"),
])
def test_main_returns_2_on_an_invalid_shells_block(tmp_path, capsys, shells, argv, message):
    cfg = _write_config(tmp_path, {**SMALL, "shells": {**SMALL["shells"], **shells}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")] + argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change, message", [
    ({"whitney": {"max_levle": 6}}, "unknown field(s) in whitney: max_levle"),
    ({"criteria": {"gird": 4}}, "unknown field(s) in criteria: gird"),
    ({"whitney": ["max_level"]}, "whitney must be an object, got ['max_level']"),
    ({"whitney": {"max_level": 1}}, "whitney.max_level must be >= 2, got 1"),
    ({"whitney": {"max_level": 6.5}}, "whitney.max_level must be an integer, got 6.5"),
    ({"criteria": {"grid": 0}}, "criteria.grid must be >= 1, got 0"),
    ({"criteria": {"grid": 4.7}}, "criteria.grid must be an integer, got 4.7"),
    ({"criteria": {"grid": 4, "wiener_n_max": 0}}, "criteria.wiener_n_max must be >= 1, got 0"),
    ({"criteria": {"grid": 4, "wiener_n_max": "24"}},
     "criteria.wiener_n_max must be an integer, got '24'"),
    ({"sim": {"alpha": 1.3, "n_traj": 20.5}}, "sim.n_traj must be an integer, got 20.5"),
    ({"sim": {"alpha": 1.3, "max_steps": 50.5}}, "sim.max_steps must be an integer, got 50.5"),
    ({"sim": {"alpha": 1.3, "seed": 1.5}}, "sim.seed must be an integer, got 1.5"),
    ({"per_trajectory_csv": "false"}, "per_trajectory_csv must be true or false, got 'false'"),
    ({"per_trajectory_csv": 1}, "per_trajectory_csv must be true or false, got 1"),
    ({"sim": {"alpha": 1.3, "seed": -1}}, "sim.seed must be a non-negative integer, got -1"),
    ({"sim": {"alpha": 1.3, "seed": 2**64}},
     f"sim.seed must be a non-negative integer, got {2**64}"),
    ({"constants": [1.5]}, "constants must be an object, got [1.5]"),
    ({"profile": ["constant"]}, "profile must be an object, got ['constant']"),
    ({"weight": ["one"]}, "weight must be an object, got ['one']"),
    ({"profile": {"kind": "constant", "c": 0.1, "beta": 3.0}}, "unknown field(s) in profile: beta"),
    ({"profile": {"kind": "power"}}, "missing field: profile.beta"),
    ({"profile": {"kind": "cubic", "c": 0.1}},
     "profile.kind must be one of constant, power, log, got 'cubic'"),
    ({"weight": {"kind": "one", "gamma": 1.0}}, "unknown field(s) in weight: gamma"),
    # no generated bubble realises a weight M other than 1, so a config
    # that names one is refused rather than given a verdict about other bubbles
    ({"weight": {"kind": "power", "gamma": 1.0}},
     "weight.kind must be 'one', got 'power': no generated bubble realises a weight M other "
     "than 1, so it would change the verdict without moving a bubble"),
    ({"profile": {"kind": "power", "beta": 0.0}}, "profile.beta must lie in (0, inf), got 0.0"),
    ({"weight": {"kind": "log", "p": 3.0}}, "weight.kind must be 'one', got 'log'"),
    ({"domain": {"center": [0.0, 0.0], "radius": 1.0, "radus": 2.0}},
     "unknown field(s) in domain: radus"),
    ({"domain": {"radius": 1.0}}, "missing field: domain.center"),
    ({"constants": {}}, "missing field: constants.alpha"),
    ({"constants": {"alpha": 1.3, "C_1": 1.25}}, "unknown field(s) in constants: C_1"),
    ({"profile": {"kind": "constant", "c": "0.1"}}, "profile.c must be a number, got '0.1'"),
    ({"constants": {"alpha": "1.3"}}, "constants.alpha must be a number, got '1.3'"),
    ({"domain": {"center": [0.0, 0.0], "radius": "1.0"}},
     "domain.radius must be a number, got '1.0'"),
    ({"domain": {"center": [0.0, "0"], "radius": 1.0}}, "domain.center must be a number, got '0'"),
    ({"domain": {"center": "0", "radius": 1.0}}, "domain.center must be a list of numbers"),
    # the shell generator builds only in the unit ball at the origin, d=2 or 3
    ({"domain": {"center": [0.0, 0.0], "radius": 2.0}}, "requires the unit ball at the origin"),
    ({"domain": {"center": [0.5, 0.0], "radius": 1.0}}, "requires the unit ball at the origin"),
    ({"domain": {"center": [0.0] * 4, "radius": 1.0}}, "shell generator supports d in {2, 3}"),
    ({"sim": {"alpha": 1.3, "boundary_eps": "0.001"}},
     "sim.boundary_eps must be a number, got '0.001'"),
    ({"sim": {"alpha": True}}, "sim.alpha must be a number, got True"),
    ({"sim": {"alpha": 1.3, "max_step": 50}}, "unknown field(s) in sim: max_step"),
    # refused before anything is allocated: the Wiener sums keep n_max + 1
    # shells per point
    ({"criteria": {"grid": 4, "wiener_n_max": 1075}},
     "criteria.wiener_n_max must be <= 1074, got 1075"),
    # refused before any cube is walked: a finer level's cubes have no int64
    # keys, 30 being the finest for the unit disk and 19 for the unit ball
    ({"whitney": {"max_level": 31}}, "whitney.max_level must be <= 30, got 31"),
    ({"domain": D3["domain"], "profile": D3["profile"], "shells": D3["shells"],
      "whitney": {"max_level": 20}}, "whitney.max_level must be <= 19, got 20"),
    # the paths start at the centre, so every one would end at step 0
    ({"sim": {"alpha": 1.3, "boundary_eps": 1.0}}, "sim.boundary_eps must be < domain.radius 1.0"),
    ({"constants": {"alpha": 1.0}}, "constants.alpha must lie in (1, 2), got 1.0"),
    ({"constants": {"alpha": 2.0}}, "constants.alpha must lie in (1, 2), got 2.0"),
    ({"constants": {"alpha": "1.5"}}, "constants.alpha must be a number, got '1.5'"),
    ({"constants": {"alpha": True}}, "constants.alpha must be a number, got True"),
    ({"constants": {"alpha": None}}, "constants.alpha must be a number, got None"),
    # no step rule reads h, but a config that sets it gets today's check
    ({"sim": {"alpha": 1.3, "h": 0}}, "sim.h must be > 0, got 0"),
    ({"sim": {"alpha": 1.3, "h": "x"}}, "sim.h must be a number, got 'x'"),
])
def test_main_returns_2_on_an_invalid_whitney_criteria_sim_or_csv_value(tmp_path, capsys,
                                                                         change, message):
    cfg = _write_config(tmp_path, {**SMALL, **change})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("obj, finest", [(SMALL, 30), (D3, 19)], ids=["d2", "d3"])
def test_whitney_and_criteria_refuse_a_max_level_past_the_int64_keys(tmp_path, capsys, obj,
                                                                     finest):
    assert RunConfig.from_json({**obj, "whitney": {"max_level": finest}}).whitney_max_level \
        == finest
    cfg = _write_config(tmp_path, {**obj, "whitney": {"max_level": finest + 1}})
    for command in ("whitney", "criteria"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert f"whitney.max_level must be <= {finest}, got {finest + 1}" \
            in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("profile, message", [
    ({"kind": "constant", "c": 0.6}, "shell 1: phi(t)=0.6 >= 1/2"),
    ({"kind": "log", "p": 0.2}, "shell 1: phi(t)=0.814"),
])
def test_main_returns_2_on_a_profile_of_half_or_more_at_a_shell(tmp_path, capsys, profile,
                                                                message):
    cfg = _write_config(tmp_path, {**SMALL, "profile": profile})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("domain, profile, shells, message", [
    # the radial gap between the shells is below the sum of their radii
    (SMALL["domain"], {"kind": "constant", "c": 0.4}, {"a": 0.1, "count": 2},
     "shells 1 and 2: their radial gap"),
    # constant phi = a: adjacent bands touch, which the certificate refuses
    (SMALL["domain"], {"kind": "constant", "c": 0.3}, {"a": 0.3, "count": 3},
     "shells 1 and 2: their radial gap"),
    (D3["domain"], {"kind": "constant", "c": 0.49}, {"a": 0.02, "count": 1},
     "shell 1: its centres lie"),
], ids=["overlapping", "touching", "d3-small-shell"])
@pytest.mark.parametrize("command", ["generate", "whitney"])
def test_main_returns_2_on_shells_the_certificate_refuses(tmp_path, capsys, domain, profile,
                                                          shells, message, command):
    cfg = _write_config(tmp_path, {**SMALL, "domain": domain, "profile": profile,
                                   "shells": shells})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_only_simulate_builds_the_ball_index(tmp_path, monkeypatch):
    # generate and criteria read no point query, so they never index the
    # bubbles; simulate indexes them once: W2 with the lattice lookup and no
    # BallIndex, D3 with one BallIndex
    built = []
    for cls in (BallIndex, _ShellLookup):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    sim = {"sim": {"max_steps": 50, "n_traj": 20, "seed": 3}}
    w2, d3 = RunConfig.from_json({**W2, **sim}), RunConfig.from_json({**D3, **sim})
    for cfg, command, want in ((w2, harness.cmd_generate, []), (w2, harness.cmd_criteria, []),
                               (w2, harness.cmd_simulate, [_ShellLookup]),
                               (d3, harness.cmd_simulate, [BallIndex])):
        built.clear()
        command(cfg, tmp_path / f"d{cfg.domain.dimension}")
        assert built == want, command.__name__


def test_main_simulates_at_alpha_1_99_in_d2_and_d3(tmp_path, capsys):
    # every alpha in (1, 2) draws finitely, so the sim block takes alpha near 2
    sim = {"max_steps": 50, "n_traj": 20, "seed": 3}
    for name, obj in (("d2", SMALL), ("d3", D3)):
        cfg = _write_config(tmp_path, {**obj, "constants": {"alpha": 1.99}, "sim": sim})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert json.loads((tmp_path / name / "estimate.json").read_text())["n"] == 20
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("change", [{"critera": {"grid": 4}}, {"out_dir": "run"}])
def test_main_returns_2_on_an_unknown_top_level_key(tmp_path, capsys, change):
    cfg = _write_config(tmp_path, {**SMALL, **change})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"unknown top-level field(s): {next(iter(change))}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_reruns_write_the_same_bytes_and_keep_every_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _write_config(tmp_path, {**SMALL, "per_trajectory_csv": True,
                                   "sim": {"alpha": 1.3, "max_steps": 200, "n_traj": 50,
                                           "seed": 3}})
    runs = [tmp_path / "first", tmp_path / "second"]
    for run in runs:
        for cmd in ("generate", "criteria", "simulate"):
            assert main([cmd, "--config", cfg, "--out", str(run)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert {"manifest.generate.json", "manifest.criteria.json",
            "manifest.simulate.json", "trajectories.csv"} <= set(names)
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    # simulate, run last, leaves the criteria's empirical constants in place
    empirical = json.loads((runs[0] / "manifest.criteria.json").read_text())["empirical"]
    assert set(empirical) == {"c2_cubes_per_ball", "C1_ratio_bound", "quasi_additivity_interval"}


def test_whitney_writes_every_cube_and_reruns_byte_identically(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _write_config(tmp_path, SMALL)
    runs = [tmp_path / "first", tmp_path / "second"]
    for run in runs:
        assert main(["whitney", "--config", cfg, "--out", str(run)]) == 0
    empirical = json.loads((runs[0] / "manifest.whitney.json").read_text())["empirical"]
    with open(runs[0] / "whitney.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == empirical["n_cubes"] > 0
    assert sum(empirical["cubes_per_level"].values()) == empirical["n_cubes"]
    assert empirical["coverage_threshold"] == 5.0 * np.sqrt(2) * 2.0 ** -6
    for name in ("whitney.csv", "manifest.whitney.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_main_returns_3_on_a_runtime_failure(tmp_path, capsys):
    # a valid config, but the output directory cannot be made: a file is there
    cfg = _write_config(tmp_path, {**SMALL, "sim": {"max_steps": 50, "n_traj": 20, "seed": 3}})
    (tmp_path / "run").write_text("")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert "File exists" in capsys.readouterr().err


def test_no_subcommand_takes_threads_and_only_report_takes_format(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL)
    out = str(tmp_path / "run")
    for argv in ([cmd, "--config", cfg, "--threads", "2"]
                 for cmd in ("generate", "whitney", "criteria", "simulate")):
        with pytest.raises(SystemExit):
            main(argv + ["--out", out])
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    for argv in (["report", "--threads", "2"], ["generate", "--config", cfg, "--format", "csv"]):
        with pytest.raises(SystemExit):
            main(argv + ["--out", out])
        assert "unrecognized arguments" in capsys.readouterr().err


def test_report_gives_the_wilson_interval_bounds(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    sim = {"alpha": 1.3, "max_steps": 50, "n_traj": 20, "seed": 3}
    run = tmp_path / "run"
    harness.cmd_simulate(RunConfig.from_json({**SMALL, "sim": sim}), run)
    est = json.loads((run / "estimate.json").read_text())
    assert "ci_halfwidth" not in est and est["ci_lo"] <= est["p_hat"] <= est["ci_hi"]
    harness.cmd_report([run], tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    assert "ci_halfwidth" not in row
    assert (float(row["ci_lo"]), float(row["ci_hi"])) == (est["ci_lo"], est["ci_hi"])


def test_report_lists_each_run_and_skips_one_without_a_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _write_config(tmp_path, {**SMALL, "sim": {"alpha": 1.3, "max_steps": 50,
                                                    "n_traj": 20, "seed": 3}})
    run, bare = tmp_path / "run", tmp_path / "bare"
    for cmd in ("generate", "criteria", "simulate"):
        assert main([cmd, "--config", cfg, "--out", str(run)]) == 0
    bare.mkdir()
    est = json.loads((run / "estimate.json").read_text())
    want = {"run": "run", "profile_kind": "constant", "profile_param": 0.1, "a": 0.5,
            "shells": 3, "verdict": "unavoidable", "p_hat": est["p_hat"],
            "ci_lo": est["ci_lo"], "ci_hi": est["ci_hi"],
            "timeout_fraction": est["timeout_fraction"]}
    for fmt in ("csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert main(["report", str(run), str(bare), "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().err == (
            f"warning: {bare} has no manifest.<command>.json; skipped\n")
        if fmt == "csv":
            with open(out, newline="") as f:
                reader = csv.DictReader(f)
                rows = list(reader)
            assert reader.fieldnames == list(want)
            assert rows == [{k: str(v) for k, v in want.items()}]
        else:
            report = json.loads(out.read_text())
            assert report == {"format_version": "1", "rows": [want]}


@pytest.mark.parametrize("name, text, why, want", [
    ("run_config.json", "{", " is not a JSON object (Expecting property name", {}),
    ("manifest.criteria.json", "{", " is not a JSON object (Expecting property name", None),
    # a run_config.json that holds an object with a block or a kind of the
    # wrong type: only the cells that the field fills are left empty
    ("run_config.json", '{"profile": 3}', ": profile is not an object (it holds a int)",
     {"profile_kind": "", "profile_param": "", "a": "", "shells": ""}),
    ("run_config.json", '{"shells": 4, "profile": {"kind": "constant", "c": 0.1}}',
     ": shells is not an object (it holds a int)",
     {"profile_kind": "constant", "profile_param": 0.1, "a": "", "shells": ""}),
    ("run_config.json", '{"profile": {"kind": ["constant"], "c": 0.1}}',
     ": profile.kind is not a string (it holds a list)",
     {"profile_kind": "", "profile_param": "", "a": "", "shells": ""}),
], ids=["run_config", "manifest", "profile", "shells", "kind"])
def test_report_names_a_file_that_is_not_json_and_leaves_its_cells_empty(
        tmp_path, monkeypatch, capsys, name, text, why, want):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _write_config(tmp_path, {**SMALL, "sim": {"alpha": 1.3, "max_steps": 50,
                                                    "n_traj": 20, "seed": 3}})
    run, out = tmp_path / "run", tmp_path / "report.json"
    for cmd in ("generate", "criteria", "simulate"):
        assert main([cmd, "--config", cfg, "--out", str(run)]) == 0
    (run / name).write_text(text)
    assert main(["report", str(run), "--out", str(out), "--format", "json"]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: {run / name}{why}")
    assert err.split("\n")[0].endswith("; its cells are left empty")
    (row,) = json.loads(out.read_text())["rows"]
    if name == "run_config.json":
        # without the config no output can be matched to it
        assert row == {"run": "run", **want}
    else:
        assert "verdict" not in row and row["profile_kind"] == "constant"
        assert row["p_hat"] == json.loads((run / "estimate.json").read_text())["p_hat"]
        assert err.count("warning:") == 1


def test_report_reads_no_output_of_another_config(tmp_path, monkeypatch, capsys):
    # generate, criteria and simulate a constant profile, then generate
    # phi = (1 - t)^1 into the same directory: the verdict and the estimate
    # there are the first config's, so their cells stay empty, with a
    # warning, until the second config's own stages rewrite them
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    sim = {"alpha": 1.3, "max_steps": 50, "n_traj": 20, "seed": 3}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({**SMALL, "sim": sim}))
    second.write_text(json.dumps({**SMALL, "sim": sim,
                                  "profile": {"kind": "power", "beta": 1.0}}))
    run, out = tmp_path / "run", tmp_path / "report.json"

    def report():
        assert main(["report", str(run), "--out", str(out), "--format", "json"]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        return row

    for cmd in ("generate", "criteria", "simulate"):
        assert main([cmd, "--config", str(first), "--out", str(run)]) == 0
    assert report()["verdict"] == "unavoidable"
    capsys.readouterr()
    assert main(["generate", "--config", str(second), "--out", str(run)]) == 0
    row = report()
    assert (row["profile_kind"], row["profile_param"]) == ("power", 1.0)
    assert not {"verdict", "p_hat", "ci_lo", "ci_hi", "timeout_fraction"} & set(row)
    assert capsys.readouterr().err == "".join(
        f"warning: {run / name} was not written for {run / 'run_config.json'}; "
        "its cells are left empty\n" for name in ("verdicts.json", "estimate.json"))
    for cmd in ("criteria", "simulate"):
        assert main([cmd, "--config", str(second), "--out", str(run)]) == 0
    row = report()
    assert capsys.readouterr().err == ""
    assert row["verdict"] == json.loads((run / "verdicts.json").read_text())["aggregate"]
    assert row["p_hat"] == json.loads((run / "estimate.json").read_text())["p_hat"]


def test_outputs_describe_the_bubbles_of_their_own_config(tmp_path, monkeypatch):
    # simulate --seed 2 into a directory that generate filled with seed 7's
    # bubbles rewrites bubbles.csv and run_config.json, as a fresh run writes them
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _write_config(tmp_path, {**SMALL, "per_trajectory_csv": True,
                                   "sim": {"alpha": 1.3, "max_steps": 50, "n_traj": 20,
                                           "seed": 3}})
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["generate", "--config", cfg, "--out", str(reused)]) == 0
    seed_7 = (reused / "bubbles.csv").read_bytes()
    for run in (reused, fresh):
        assert main(["simulate", "--config", cfg, "--out", str(run), "--seed", "2"]) == 0
    assert (fresh / "bubbles.csv").read_bytes() != seed_7
    for name in ("bubbles.csv", "run_config.json", "estimate.json", "trajectories.csv"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


def test_a_simulate_without_trajectories_removes_an_earlier_runs(tmp_path):
    # a 20-path run writes trajectories.csv; a 10-path run into the same
    # directory with per_trajectory_csv false must not leave those 20 rows
    # beside its own estimate
    sim = {"alpha": 1.3, "max_steps": 50, "n_traj": 20, "seed": 3}
    harness.cmd_simulate(RunConfig.from_json({**SMALL, "per_trajectory_csv": True,
                                              "sim": sim}), tmp_path)
    assert len((tmp_path / "trajectories.csv").read_text().splitlines()) == 21
    harness.cmd_simulate(RunConfig.from_json({**SMALL, "sim": {**sim, "n_traj": 10}}), tmp_path)
    assert json.loads((tmp_path / "estimate.json").read_text())["n"] == 10
    assert not (tmp_path / "trajectories.csv").exists()


def test_run_config_json_round_trip():
    obj = {
        **SMALL,
        "weight": {"kind": "one"},
        "sim": {"alpha": 1.3, "h": 1e-4, "boundary_eps": 1e-3, "max_steps": 500,
                "n_traj": 10, "seed": 3},
        "per_trajectory_csv": True,
    }
    cfg = RunConfig.from_json(obj)
    assert cfg.to_json() == RunConfig.from_json({k: v for k, v in obj.items()
                                                 if k != "weight"}).to_json()
    assert "weight" not in cfg.to_json()
    # no step rule reads sim.h: a config that sets it loads, and it is dropped
    assert "h" not in cfg.to_json()["sim"]
    assert cfg.to_json()["constants"] == {"alpha": 1.3}
    again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again.to_json() == cfg.to_json()
    assert again.hash() == cfg.hash()
    assert np.array_equal(again.domain.center, cfg.domain.center)
    assert again.sim == cfg.sim


def test_no_subcommand_loads_scipy_numpy_ma_numpy_random_or_hashlib(tmp_path):
    # every CLI child imports the harness, and none of generate, simulate
    # and criteria needs scipy, so loading it would cost each its import
    # time; nor numpy.ma, which np.median, np.percentile and a plain
    # np.unique import on first use (0.4 MiB of resident memory); nor, in
    # d=2 or d=3, numpy.random or OpenSSL's _hashlib (together ≈5.6 MiB):
    # the shell rotations come from the counter streams and the config hash
    # from the built-in SHA-256; nor numpy.polynomial (5.6 ms to import),
    # since the table of |xi|'s law needs no quadrature nodes; loading
    # scipy.spatial and numpy.polynomial afterwards shows that the check can
    # fail
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    sim = {"alpha": 1.3, "boundary_eps": 1e-3, "max_steps": 200, "n_traj": 20, "seed": 3}
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from champagne import harness\n"
        "cfg, out = harness.RunConfig.from_json(json.loads(sys.argv[1])), Path(sys.argv[2])\n"
        "def loaded():\n"
        "    return (any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
        "            *(m in sys.modules\n"
        "              for m in ('numpy.ma', 'numpy.random', '_hashlib', 'numpy.polynomial')))\n"
        "seen = [loaded()]\n"
        "for cmd in (harness.cmd_generate, harness.cmd_simulate, harness.cmd_criteria):\n"
        "    cmd(cfg, out)\n"
        "    seen.append(loaded())\n"
        "import scipy.spatial, numpy.polynomial\n"
        "print(seen, loaded())\n"
    )
    for name, obj in (("d2", SMALL), ("d3", D3)):
        out = subprocess.run([sys.executable, "-c", code, json.dumps({**obj, "sim": sim}),
                              str(tmp_path / name)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == ("[" + ", ".join(["(False, False, False, False, False)"] * 4)
                                      + "] (True, True, True, True, True)"), name


def test_importing_the_harness_builds_no_table(tmp_path):
    # the benchmark times `import champagne.harness` as its set-up: the table
    # of |xi|'s law is built by the first simulation, once per (d, alpha)
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    sim = {"alpha": 1.3, "boundary_eps": 1e-3, "max_steps": 20, "n_traj": 4, "seed": 3}
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import champagne.harness as harness\n"
        "from champagne import rng\n"
        "seen = [rng.radial_law.cache_info().currsize]\n"
        "cfg = harness.RunConfig.from_json(json.loads(sys.argv[1]))\n"
        "for cmd in (harness.cmd_generate, harness.cmd_simulate, harness.cmd_simulate):\n"
        "    cmd(cfg, Path(sys.argv[2]))\n"
        "    seen.append(rng.radial_law.cache_info().currsize)\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps({**SMALL, "sim": sim}),
                          str(tmp_path / "run")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == [0, 0, 1, 1]


def test_the_cli_entry_freezes_the_imported_heap_and_main_does_not(tmp_path, monkeypatch):
    # python -m champagne calls harness.cli, which collects and then freezes
    # once before main runs the stage; main, which tests call in process,
    # freezes nothing
    cfg = _write_config(tmp_path, SMALL)
    frozen = gc.get_freeze_count()
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert gc.get_freeze_count() == frozen

    calls = []
    monkeypatch.setattr(gc, "collect", lambda: calls.append("collect"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(harness, "main", lambda: calls.append("main") or 7)
    assert harness.cli() == 7
    assert calls == ["collect", "freeze", "main"]
    monkeypatch.undo()

    monkeypatch.setattr(harness, "cli", lambda: calls.append("cli") or 5)
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("champagne", run_name="__main__")
    assert stop.value.code == 5 and calls[-1] == "cli"


def test_the_console_script_is_the_cli_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"champagne": "champagne.harness:cli"}


def test_importing_the_harness_freezes_nothing_and_the_entry_freezes(tmp_path):
    # the benchmark times `import champagne.harness` as its set-up, which must
    # not pay for the freeze; `python -m champagne` freezes before main runs
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import gc, runpy\n"
        "from champagne import harness\n"
        "print(gc.get_freeze_count())\n"
        "harness.main = lambda: print(gc.get_freeze_count() > 0) or 0\n"
        "runpy.run_module('champagne', run_name='__main__')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["0", "True"]


def test_only_the_whitney_and_criteria_commands_load_whitney_and_criteria(tmp_path):
    # generate and simulate run neither the criteria nor the Whitney cubes,
    # so they neither compile nor import those modules, nor the kernels that
    # only the criteria read; harness's re-export of aikawa_sum still
    # resolves, to the criteria's own function
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    sim = {"alpha": 1.3, "boundary_eps": 1e-3, "max_steps": 200, "n_traj": 20, "seed": 3}
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import champagne.harness as harness\n"
        "cfg, out = harness.RunConfig.from_json(json.loads(sys.argv[1])), Path(sys.argv[2])\n"
        "def loaded():\n"
        "    return [m in sys.modules\n"
        "            for m in ('champagne.criteria', 'champagne.whitney', 'champagne.kernels')]\n"
        "seen = [loaded()]\n"
        "for cmd in (harness.cmd_generate, harness.cmd_simulate, harness.cmd_whitney,\n"
        "            harness.cmd_criteria):\n"
        "    cmd(cfg, out)\n"
        "    seen.append(loaded())\n"
        "from champagne import criteria\n"
        "print(json.dumps([seen, harness.aikawa_sum is criteria.aikawa_sum]))\n"
    )
    for name, obj in (("d2", SMALL), ("d3", D3)):
        out = subprocess.run([sys.executable, "-c", code, json.dumps({**obj, "sim": sim}),
                              str(tmp_path / name)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        seen, same = json.loads(out.stdout)
        assert seen == [[False, False, False], [False, False, False], [False, False, False],
                        [False, True, False], [True, True, True]], name
        assert same, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        harness.no_such_name


@pytest.mark.parametrize("failing", ["classify_avoidability", "whitney_sums"],
                         ids=["worker", "parent"])
def test_a_criteria_half_failure_raises_here_and_leaves_no_child(tmp_path, monkeypatch,
                                                                  capsys, failing):
    # The criteria stage runs the boundary series and separation, then the
    # Whitney sums; either half's exception ends main with exit 3 and its
    # message, and leaves no child process.
    def fail(*args, **kwargs):
        raise ArithmeticError("criteria half failed on purpose")

    monkeypatch.setattr(criteria, failing, fail)
    cfg = _write_config(tmp_path, SMALL)
    assert main(["criteria", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert "criteria half failed on purpose" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criteria_writes_the_same_bytes_with_one_cpu_and_no_fork(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = {}
    cfg = RunConfig.from_json(SMALL)
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "_worker_count", lambda: cpus)
        runs[cpus] = tmp_path / f"cpus_{cpus}"
        # bubbles.csv, which a second CPU helps write, is in place before the
        # stage, which then keeps it
        harness.cmd_generate(cfg, runs[cpus])
        forks.clear()
        harness.cmd_criteria(cfg, runs[cpus])
        # both halves of the criteria run in this process, whatever the CPU count
        assert forks == []
    names = sorted(p.name for p in runs[1].iterdir())
    assert "wiener_trace.csv" in names
    assert names == sorted(p.name for p in runs[2].iterdir())
    for name in names:
        assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes(), name


def test_the_cli_runs_with_scipy_blocked(tmp_path):
    # the declared dependencies suffice: with scipy unimportable, generate ->
    # criteria -> simulate exit 0 and write the bytes of an unblocked run
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "SOURCE_DATE_EPOCH": "1700000000"}
    cfg = _write_config(tmp_path, {**SMALL, "sim": {"alpha": 1.3, "boundary_eps": 1e-3,
                                                    "max_steps": 200, "n_traj": 20,
                                                    "seed": 3}})
    code = ("import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['scipy'] = None\n"
            "from champagne.harness import main\n"
            "sys.exit(main(sys.argv[2:]))\n")
    runs = {}
    for mode in ("blocked", "unblocked"):
        runs[mode] = tmp_path / mode
        for cmd in ("generate", "criteria", "simulate"):
            out = subprocess.run(
                [sys.executable, "-c", code, mode, cmd, "--config", cfg, "--out", str(runs[mode])],
                env=env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, (mode, cmd, out.stderr)
    names = sorted(p.name for p in runs["blocked"].iterdir())
    assert {"verdicts.json", "wiener_trace.csv", "estimate.json"} <= set(names)
    assert names == sorted(p.name for p in runs["unblocked"].iterdir())
    for name in names:
        assert (runs["blocked"] / name).read_bytes() == (runs["unblocked"] / name).read_bytes()


def test_d3_outputs_do_not_depend_on_openblas_or_numpy_simd(tmp_path):
    # generate -> criteria on D3 in child processes: natively, with
    # OpenBLAS's Nehalem kernels, and with numpy's AVX2 and AVX-512 loops
    # switched off.  No output may depend on OpenBLAS.  Under the SIMD switch
    # only bubbles.csv must match: the boundary series takes numpy's power
    # operator, whose SIMD loops need not round like its scalar one.
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "SOURCE_DATE_EPOCH": "1700000000"}
    cfg = _write_config(tmp_path, D3)
    hosts = {"native": {}, "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
             "no_simd": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}}
    for host, extra in hosts.items():
        for cmd in ("generate", "criteria"):
            out = subprocess.run(
                [sys.executable, "-m", "champagne", cmd, "--config", cfg,
                 "--out", str(tmp_path / host)],
                env={**env, **extra}, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, (host, cmd, out.stderr)
    for name in ("bubbles.csv", "verdicts.json", "wiener_trace.csv"):
        native = (tmp_path / "native" / name).read_bytes()
        assert (tmp_path / "nehalem" / name).read_bytes() == native, name
    native = (tmp_path / "native" / "bubbles.csv").read_bytes()
    assert (tmp_path / "no_simd" / "bubbles.csv").read_bytes() == native


@pytest.mark.parametrize("lengths", [range(0, 151), range(151, 301), [1000, 4096, 10_000]])
def test_config_hash_is_hashlib_sha256(lengths):
    # every padding case of one and two blocks (55, 56 and 64 bytes are the
    # edges), then many blocks
    rng = np.random.default_rng(15)
    for n in lengths:
        data = rng.bytes(n)
        assert harness._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest(), n
    cfg = RunConfig.from_json(SMALL)
    assert cfg.hash() == hashlib.sha256(harness._canonical_bytes(cfg.to_json())).hexdigest()
