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
from champagne.harness import RunConfig, main

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
    # once per sum; the closed-form incidence must reproduce them bit for bit.
    _assert_criteria_outputs(
        tmp_path, monkeypatch, SMALL,
        "e184a0320eed5d2c1b2cfc060bfd49aba204cf8f42502967e091ecf89046ba0b",
        "ec7a0038868bb7f239ac0f7e174f1daf38eea363d2375fbbb2904d680560fc09",
        {"c2_cubes_per_ball": 4,
         "C1_ratio_bound": 1.900247054885672,
         "quasi_additivity_interval": [0.00026459703520188263, 2014.2926594003247]})


def test_cmd_criteria_reproduces_pinned_outputs_in_d3(tmp_path, monkeypatch):
    # Outputs of the incidence that looked each box up in the decomposition;
    # the closed-form incidence must reproduce them bit for bit.
    _assert_criteria_outputs(
        tmp_path, monkeypatch, D3,
        "874cef7853b885bc77daf4d0a3d5e659b34ce9845ac7ab22e466a0dd2647daa5",
        "e7051ff5b4fe0b474050a7c479151141add7e0a695dde4b7dd980598b568edbf",
        {"c2_cubes_per_ball": 39,
         "C1_ratio_bound": 2.5194139682429655,
         "quasi_additivity_interval": [5.7554751880337886e-06, 48252.98795006506]})


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
    # the ids of the 52,013 bubbles below the collar (1.6 MiB by tracemalloc);
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
    assert out.aikawa[0].uncovered_bubbles.size == 52_013
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
])
def test_main_returns_2_on_a_sim_alpha_mismatch_or_a_removed_constant(
    tmp_path, capsys, change, message
):
    cfg = _write_config(tmp_path, {**SMALL, **change})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    cfg = _write_config(tmp_path, {**SMALL, "whitney": {"max_level": 1}})
    assert main(["whitney", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert "max_level" in capsys.readouterr().err


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
        "constants": {"alpha": 1.3, "C_G": 2.0, "C": 3.0, "C_1": 1.25},
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


def test_no_subcommand_loads_scipy(tmp_path):
    # every CLI child imports the harness, and none of generate, simulate
    # and criteria needs scipy, so loading it would cost each its import
    # time; nor numpy.ma, which np.median, np.percentile and a plain
    # np.unique import on first use (0.4 MiB of resident memory); loading
    # scipy.spatial, which imports both, afterwards shows that the check can
    # fail
    src = str(Path(champagne.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    obj = {**SMALL, "sim": {"alpha": 1.3, "boundary_eps": 1e-3, "max_steps": 200,
                            "n_traj": 20, "seed": 3}}
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from champagne import harness\n"
        "cfg, out = harness.RunConfig.from_json(json.loads(sys.argv[1])), Path(sys.argv[2])\n"
        "def loaded():\n"
        "    return (any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
        "            'numpy.ma' in sys.modules)\n"
        "seen = [loaded()]\n"
        "for cmd in (harness.cmd_generate, harness.cmd_simulate, harness.cmd_criteria):\n"
        "    cmd(cfg, out)\n"
        "    seen.append(loaded())\n"
        "import scipy.spatial\n"
        "print(seen, loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(obj), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[" + ", ".join(["(False, False)"] * 4) + "] (True, True)"


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
