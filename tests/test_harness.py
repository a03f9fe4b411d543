import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import champagne
from champagne import criteria, harness, simulate, whitney
from champagne.harness import RunConfig, _sha256_hex, main

SMALL = {
    "domain": {"center": [0.0, 0.0], "radius": 1.0},
    "constants": {"alpha": 1.3, "C": 2.0},
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
    # (verdicts.json re-pinned when it came to state its one verdict once).
    _assert_criteria_outputs(
        tmp_path, monkeypatch, SMALL,
        "9f31d354381282d1350919eff07a1e3d060b63b53b9c9113761f60156b0bb443",
        "301f365661eaec5a1a2c0079419e37c42eacbb08f1102235c7b6af23e990dd18",
        {"c2_cubes_per_ball": 4,
         "C1_ratio_bound": 1.900247054885668,
         "quasi_additivity_interval": [0.0002641658426157842, 1996.068536337412]})


def test_cmd_criteria_reproduces_pinned_outputs_in_d3(tmp_path, monkeypatch):
    # Outputs of the incidence that looked each box up in the decomposition;
    # the closed-form incidence must reproduce them bit for bit
    # (verdicts.json re-pinned when it came to state its one verdict once).
    _assert_criteria_outputs(
        tmp_path, monkeypatch, D3,
        "0d41119c2bcfca42848781323d8d45ca71762f1f1ca9e8e76e143ff5fb33fd4a",
        "af5f31dbe66c2d8c503ac416377a894745233d03d8433652a073f2cbe596a8eb",
        {"c2_cubes_per_ball": 38,
         "C1_ratio_bound": 2.5394803189929083,
         "quasi_additivity_interval": [5.5314466870389675e-06, 48350.36079238019]})


def test_cmd_criteria_never_calls_the_per_ball_loop(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("intersecting_cubes called")

    monkeypatch.setattr(whitney, "intersecting_cubes", forbidden)
    monkeypatch.setattr(criteria, "intersecting_cubes", forbidden)
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
    # host's allocator.  W2's configuration keeps its centres, radii, shell ids,
    # distances to the boundary and ball index (3.2 MiB); the build needs
    # besides only blocks of rows and a few columns of n values (1.2 MiB).
    # The stable-norm median keeps nothing and holds its 2^16 norms (0.5 MiB)
    # and one block of draws (0.8 MiB in all).
    harness._build_config(RunConfig.from_json(SMALL))  # first-use imports and caches
    simulate.median_unit_norm.__wrapped__(2, 1.5, 16)
    tracemalloc.start()
    try:
        config = harness._build_config(RunConfig.from_json(W2))
        assert config.index is not None
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        simulate.median_unit_norm.__wrapped__(2, 1.5)
        after, median_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert config.n == 54_743
    assert build_peak - kept < 2 * MiB
    assert median_peak - after < 1.5 * MiB


def test_criteria_sums_hold_little_beyond_the_configuration():
    # The Whitney half of the criteria stage on W2 at the benchmark's
    # max_level 8: cube counts, the incidence and every sum at 4 grid points.
    # It holds one level's pairs, blocks of rows, one count per bubble and
    # the ids of the 52,012 bubbles below the collar (1.6 MiB by tracemalloc);
    # holding the whole incidence and passing over it once per point took 5.2.
    def sums(obj):
        cfg = RunConfig.from_json(obj)
        config = harness._build_config(cfg)
        points = criteria.uniform_boundary_grid(cfg.domain, cfg.grid_size)
        tracemalloc.start()
        try:
            counts = whitney.cube_counts(cfg.domain, cfg.whitney_max_level)
            inc = whitney.ball_cube_incidence(cfg.domain, cfg.whitney_max_level,
                                              config.centers, config.radii)
            out = criteria.whitney_sums(inc, config, points, cfg.constants, cfg.wiener_n_max)
            out.quasi_additivity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return config, counts, out, peak

    sums(SMALL)  # first-use imports and caches
    config, counts, out, peak = sums({**W2, "whitney": {"max_level": 8}})
    assert config.n == 54_743
    assert sum(counts.values()) == 6_324
    assert out.aikawa[0].uncovered_bubbles.size == 52_012
    assert peak < 2.5 * MiB


def test_main_returns_0_on_a_valid_run(tmp_path):
    cfg = _write_config(tmp_path, SMALL)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "bubbles.csv").exists()


def test_main_returns_2_on_a_config_missing_profile(tmp_path, capsys):
    obj = {k: v for k, v in SMALL.items() if k != "profile"}
    cfg = _write_config(tmp_path, obj)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "profile" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"sim": {"alpha": 1.5, "max_steps": 50, "n_traj": 20}}, "differs from constants.alpha"),
    ({"constants": {"alpha": 1.3, "C_M": 1.5}}, "C_M"),
    ({"constants": {"alpha": 1.3, "C_H": 1.0}}, "C_H"),
    ({"constants": {"alpha": 1.3, "C_1": 1.25}}, "C_1"),
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
    ({"weight": {"kind": "log"}}, "missing field: weight.p"),
    ({"profile": {"kind": "power", "beta": 0.0}}, "profile.beta must lie in (0, inf), got 0.0"),
    ({"weight": {"kind": "log", "p": -1.0}}, "weight.p must lie in (0, inf), got -1.0"),
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
])
def test_main_returns_2_on_an_invalid_whitney_criteria_sim_or_csv_value(tmp_path, capsys,
                                                                         change, message):
    cfg = _write_config(tmp_path, {**SMALL, **change})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
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


def test_run_config_json_round_trip():
    obj = {
        **SMALL,
        "constants": {"alpha": 1.3, "C_G": 2.0, "C": 3.0},
        "weight": {"kind": "power", "gamma": 0.25},
        "sim": {"alpha": 1.3, "h": 1e-4, "boundary_eps": 1e-3, "max_steps": 500,
                "n_traj": 10, "seed": 3},
        "per_trajectory_csv": True,
    }
    cfg = RunConfig.from_json(obj)
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
    # from the built-in SHA-256; loading scipy.spatial, which imports all
    # four, afterwards shows that the check can fail
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
        "            *(m in sys.modules for m in ('numpy.ma', 'numpy.random', '_hashlib')))\n"
        "seen = [loaded()]\n"
        "for cmd in (harness.cmd_generate, harness.cmd_simulate, harness.cmd_criteria):\n"
        "    cmd(cfg, out)\n"
        "    seen.append(loaded())\n"
        "import scipy.spatial\n"
        "print(seen, loaded())\n"
    )
    for name, obj in (("d2", SMALL), ("d3", D3)):
        out = subprocess.run([sys.executable, "-c", code, json.dumps({**obj, "sim": sim}),
                              str(tmp_path / name)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == ("[" + ", ".join(["(False, False, False, False)"] * 4)
                                      + "] (True, True, True, True)"), name


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
        assert _sha256_hex(data) == hashlib.sha256(data).hexdigest(), n
    cfg = RunConfig.from_json(SMALL)
    assert cfg.hash() == hashlib.sha256(cfg.canonical_bytes()).hexdigest()
