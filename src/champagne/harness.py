"""CLI, run configuration, persistence, and combined reports.

Subcommands: generate | whitney | criteria | simulate | report.  All outputs
are deterministic for a fixed config and seed; manifest timestamps honor
SOURCE_DATE_EPOCH so full runs can be byte-identical when required.  Each
subcommand writes its own ``manifest.<command>.json``, so a later command
keeps an earlier one's record.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.

Every CLI stage is its own process, so it pays for each module it imports
(and, without cached bytecode, compiles).  Importing this module loads what
reading and checking a RunConfig and building the bubbles need (``geometry``,
``rng``, ``spatial``, ``bubbles``) and ``simulate``, which defines the
``sim`` block.  ``generate`` and ``simulate`` load nothing more.
``whitney`` loads the ``whitney`` module inside ``cmd_whitney``, and
``criteria`` loads ``criteria``, ``kernels`` and ``whitney`` inside
``cmd_criteria``: together about 1,000 lines that the other stages never
run.  The name ``aikawa_sum`` is re-exported from ``criteria`` on first use
(module ``__getattr__``).

Fixed cost.  Before its work, a stage child pays for starting the
interpreter with ``site``, about 45 ms on a 2-core x86-64 host, for
importing numpy, about 55-70 ms, and, when no bytecode is cached, about
20 ms for compiling this package (17 ms for the modules imported here).
At exit the interpreter's last garbage collection walks every object
still tracked, most of them made by the imports: about 10-12 ms more.  So
the entry point ``cli``, which ``python -m champagne`` and the
``champagne`` console script both call, runs ``gc.collect()`` and then
``gc.freeze()`` once, after the imports and before the stage: no later
collection, neither the stage's nor the last one nor a forked worker's,
walks the import-time objects.  The collection comes first so that no
garbage of the imports is frozen for good (importing this module leaves
none, but a new import could).  The freeze sits in ``cli`` and not in
``main`` because tests and other callers run ``main`` in their own
process, whose objects it would keep; and not at import, so importing
this module neither freezes nor forks.

Checking a RunConfig runs the generator's disjointness certificate, which
reads only the lattice parameters, so a family it refuses exits 2 and no
stage searches the bubbles for overlapping pairs.  Only ``simulate`` builds
a point lookup over them (``BubbleConfig.index``): the shell lattice's for
a d=2 family, a ``BallIndex`` for d=3.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

try:  # CPython's built-in SHA-256, which hashlib falls back to without OpenSSL
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from .bubbles import (
    _CSV_BLOCK,
    BubbleConfig,
    RadialProfile,
    _shell_lattice,
    generate_shell_config,
)
from .geometry import BallDomain, _csv_lines, _number, finest_key_level
from .simulate import _TAGS, SimParams, estimate_hitting
from .simulate import APPROXIMATION_NOTES as SIM_NOTES

__all__ = ["RunConfig", "ConfigError", "cli", "main", "cmd_generate", "cmd_whitney",
           "cmd_criteria", "cmd_simulate", "cmd_report"]

FORMAT_VERSION = "1"
_TOP_LEVEL_KEYS = frozenset({"format_version", "domain", "constants", "profile", "weight",
                             "shells", "whitney", "criteria", "per_trajectory_csv", "sim"})
_SECTION_KEYS = {"shells": frozenset({"a", "count", "seed"}),
                 "whitney": frozenset({"max_level"}),
                 "criteria": frozenset({"grid", "wiener_n_max"}),
                 "domain": frozenset({"center", "radius"}),
                 "constants": frozenset({"alpha"}),
                 "sim": frozenset({"alpha", "h", "boundary_eps", "max_steps", "n_traj", "seed"})}
# the keys of a block that have no default
_REQUIRED_KEYS = {"domain": ("center", "radius"), "constants": ("alpha",)}

APPROXIMATION_NOTES = [f"simulator: {note}" for note in SIM_NOTES] + [
    "criteria: a.e.-boundary statements are proxied by a deterministic grid"]


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Everything needed to reproduce a run; round-trips bit-exactly."""

    domain: BallDomain
    alpha: float
    profile: object
    shell_a: float = 0.5
    shells: int = 4
    seed: int = 0
    whitney_max_level: int = 8
    grid_size: int = 32
    wiener_n_max: int = 24
    sim: SimParams | None = None
    per_trajectory_csv: bool = False
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ConfigError(f"constants.alpha must lie in (1, 2), got {self.alpha!r}")
        # the shells block, checked here so that a bad value exits 2 rather
        # than failing later in the generator
        if not 0.0 < self.shell_a < 1.0:
            raise ConfigError(f"shells.a must lie in (0, 1), got {self.shell_a!r}")
        if self.shells < 1:
            raise ConfigError(f"shells.count must be >= 1, got {self.shells!r}")
        for name, seed in (("shells.seed", self.seed), ("sim.seed", getattr(self.sim, "seed", 0))):
            if not 0 <= seed < 2**64:
                raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}; "
                                  "seeds lie in [0, 2**64)")
        if self.whitney_max_level < 2:
            raise ConfigError(f"whitney.max_level must be >= 2, got {self.whitney_max_level!r}")
        if self.grid_size < 1:
            raise ConfigError(f"criteria.grid must be >= 1, got {self.grid_size!r}")
        if self.wiener_n_max < 1:
            raise ConfigError(f"criteria.wiener_n_max must be >= 1, got {self.wiener_n_max!r}")
        if self.wiener_n_max > 1074:
            raise ConfigError(f"criteria.wiener_n_max must be <= 1074, got {self.wiener_n_max!r}; "
                              "no float64 distance lies in a deeper dyadic shell")
        # the paths start at the centre, at distance domain.radius from the boundary
        if self.sim is not None and self.sim.boundary_eps >= self.domain.radius:
            raise ConfigError(f"sim.boundary_eps must be < domain.radius {self.domain.radius!r}, "
                              f"got {self.sim.boundary_eps!r}")
        # the generator's own checks, its disjointness certificate among
        # them, so that a family it would refuse exits 2
        try:
            _shell_lattice(self.domain, self.profile, self.shell_a, self.shells)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # after the generator's checks, which leave only the unit disk and ball
        finest = finest_key_level(self.domain)
        if self.whitney_max_level > finest:
            raise ConfigError(f"whitney.max_level must be <= {finest}, got "
                              f"{self.whitney_max_level!r}: finer cubes have no int64 keys")

    def to_json(self) -> dict:
        out = {
            "format_version": self.format_version,
            "domain": self.domain.to_json(),
            "constants": {"alpha": self.alpha},
            "profile": self.profile.to_json(),
            "shells": {"a": self.shell_a, "count": self.shells, "seed": self.seed},
            "whitney": {"max_level": self.whitney_max_level},
            "criteria": {"grid": self.grid_size, "wiener_n_max": self.wiener_n_max},
            "per_trajectory_csv": self.per_trajectory_csv,
        }
        if self.sim is not None:
            out["sim"] = self.sim.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        try:
            _object(obj, "config")
            version = str(obj.get("format_version", FORMAT_VERSION))
            if version != FORMAT_VERSION:
                raise ConfigError(f"unsupported format_version {version!r}")
            unknown = sorted(set(obj) - _TOP_LEVEL_KEYS)
            if unknown:
                raise ConfigError(f"unknown top-level field(s): {', '.join(unknown)}")
            for name in ("domain", "constants", "profile"):
                if name not in obj:
                    raise ConfigError(f"missing field: {name}")
            shells, whitney, criteria, domain, constants, sim_obj = (
                _section(obj, name) for name in _SECTION_KEYS)
            per_trajectory_csv = obj.get("per_trajectory_csv", False)
            if not isinstance(per_trajectory_csv, bool):
                raise ConfigError(
                    f"per_trajectory_csv must be true or false, got {per_trajectory_csv!r}")
            alpha = float(_number(constants["alpha"], "constants.alpha"))
            sim = None
            if "sim" in obj:
                sim_obj = {"alpha": alpha, **sim_obj}
                for key in ("alpha", "h", "boundary_eps"):
                    if key in sim_obj:
                        _number(sim_obj[key], f"sim.{key}")
                # h, the time step of an earlier fixed-step rule, is read by
                # no step rule: checked, so that configs setting it still
                # load, then dropped
                h = sim_obj.pop("h", 1.0)
                if not h > 0:
                    raise ConfigError(f"sim.h must be > 0, got {h!r}")
                for key in ("max_steps", "n_traj", "seed"):
                    if key in sim_obj:
                        sim_obj[key] = _integer(sim_obj[key], f"sim.{key}")
                sim = SimParams(**sim_obj)
                # the criteria and the simulator must decide the same process
                if sim.alpha != alpha:
                    raise ConfigError(
                        f"sim.alpha {sim.alpha!r} differs from constants.alpha {alpha!r}"
                    )
            _check_weight(_object(obj.get("weight", {"kind": "one"}), "weight"))
            return cls(
                domain=BallDomain.from_json(domain),
                alpha=alpha,
                profile=RadialProfile.from_json(_object(obj["profile"], "profile")),
                shell_a=float(_number(shells.get("a", 0.5), "shells.a")),
                shells=_integer(shells.get("count", 4), "shells.count"),
                seed=_integer(shells.get("seed", 0), "shells.seed"),
                whitney_max_level=_integer(whitney.get("max_level", 8), "whitney.max_level"),
                grid_size=_integer(criteria.get("grid", 32), "criteria.grid"),
                wiener_n_max=_integer(criteria.get("wiener_n_max", 24), "criteria.wiener_n_max"),
                sim=sim,
                per_trajectory_csv=per_trajectory_csv,
                format_version=version,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def hash(self) -> str:
        """SHA-256 in hex of ``_canonical_bytes``, the manifests' ``config_hash``,
        from CPython's built-in module: importing ``hashlib`` would map
        OpenSSL's libcrypto (3.4 MiB of resident memory) into every CLI stage."""
        return _sha256(_canonical_bytes(self.to_json())).hexdigest()

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                obj = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(obj)


def _canonical_bytes(obj: dict) -> bytes:
    """The JSON of a config object with sorted keys and no spaces, which the
    manifests' ``config_hash`` digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _object(block, name: str) -> dict:
    """The config block ``name``; one that is not a JSON object is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    return block


def _check_weight(block: dict) -> None:
    """A ConfigError unless the weight block is M == 1, ``{"kind": "one"}``,
    which older configs carry.  No generated bubble realises another M, so
    it would change the verdict without moving a bubble."""
    if block.get("kind") != "one":
        raise ConfigError(f"weight.kind must be 'one', got {block.get('kind')!r}: no generated "
                          "bubble realises a weight M other than 1, so it would change the "
                          "verdict without moving a bubble")
    unknown = sorted(set(block) - {"kind"})
    if unknown:
        raise ConfigError(f"unknown field(s) in weight: {', '.join(unknown)}")


def _section(obj: dict, name: str) -> dict:
    """The config's ``name`` block (empty if absent); a block that is not a
    JSON object, a key that the block does not define, or a missing key
    that has no default is a ConfigError rather than being ignored."""
    section = _object(obj.get(name, {}), name)
    unknown = sorted(set(section) - _SECTION_KEYS[name])
    if unknown:
        raise ConfigError(f"unknown field(s) in {name}: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS.get(name, ()):
        if key not in section:
            raise ConfigError(f"missing field: {name}.{key}")
    return section


def _integer(value, name: str) -> int:
    """value as an int; a fraction, a string or a bool is a ConfigError rather
    than being truncated or parsed."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _timestamps() -> dict:
    """SOURCE_DATE_EPOCH if set, else now; each stage reads it before it
    writes, so a value that is not an integer exits 2 and writes nothing."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        now = int(epoch) if epoch is not None else int(time.time())
    except ValueError:
        raise ConfigError(f"SOURCE_DATE_EPOCH must be an integer, got {epoch!r}") from None
    return {"unix": now, "source_date_epoch": epoch is not None}


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def _write_manifest(out: Path, command: str, cfg: RunConfig, stamp: dict,
                    empirical: dict | None = None):
    _write_json(out / f"manifest.{command}.json", {
        "format_version": FORMAT_VERSION,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
        "empirical": empirical or {},
        "timestamps": stamp,
        "approximation_notes": APPROXIMATION_NOTES,
    })


def __getattr__(name: str):
    # aikawa_sum, the per-point sum, is re-exported from criteria, which is
    # imported only here and by the commands that run it
    if name == "aikawa_sum":
        from .criteria import aikawa_sum

        return aikawa_sum
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_config(cfg: RunConfig) -> BubbleConfig:
    """The run's bubbles, generated from the RunConfig alone, so that no
    output depends on what an earlier command left in the output directory."""
    return generate_shell_config(cfg.domain, cfg.profile, cfg.shell_a, cfg.shells, cfg.seed)


def _write_bubbles(cfg: RunConfig, config: BubbleConfig, out: Path) -> None:
    """Write ``bubbles.csv`` and ``run_config.json`` together, unless ``out``
    already holds both and its ``run_config.json`` is ``cfg``'s, so that the
    bubbles there are always the ones the run's other outputs describe."""
    try:
        with open(out / "run_config.json") as f:
            if json.load(f) == cfg.to_json() and (out / "bubbles.csv").exists():
                return
    except (OSError, json.JSONDecodeError):
        pass
    config.to_csv(out / "bubbles.csv")
    _write_json(out / "run_config.json", cfg.to_json())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig, out: Path) -> Path:
    stamp = _timestamps()
    out.mkdir(parents=True, exist_ok=True)
    config = _build_config(cfg)
    config.to_csv(out / "bubbles.csv")
    _write_json(out / "run_config.json", cfg.to_json())
    empirical = {
        "n_bubbles": config.n,
        "ratio_sup": config.ratio_sup,
        "coverage_a": config.meta.get("coverage_a"),
        "shell_t": config.meta.get("t"),
    }
    _write_manifest(out, "generate", cfg, stamp, empirical)
    return out / "bubbles.csv"


def cmd_whitney(cfg: RunConfig, out: Path) -> Path:
    from .whitney import coverage_threshold, decompose, write_csv

    stamp = _timestamps()
    out.mkdir(parents=True, exist_ok=True)
    cubes = decompose(cfg.domain, cfg.whitney_max_level)
    write_csv(out / "whitney.csv", cubes)
    per_level = {str(lev): int(idx.shape[0]) for lev, (idx, _) in cubes.items()}
    empirical = {
        "n_cubes": sum(per_level.values()),
        "cubes_per_level": per_level,
        "coverage_threshold": coverage_threshold(cfg.domain.dimension, cfg.whitney_max_level),
    }
    _write_manifest(out, "whitney", cfg, stamp, empirical)
    return out / "whitney.csv"


def cmd_criteria(cfg: RunConfig, out: Path) -> Path:
    """The boundary series, the verdict and the per-shell separation
    (``classify_avoidability``), then the Whitney sums over the
    configuration's cube-bubble incidence (``whitney_sums``), one after the
    other in this process.  No Whitney decomposition is walked:
    ``cmd_whitney``'s manifest counts its cubes.

    ``verdicts.json`` holds ``aggregate``, ``verdict``, ``notes``, the
    separations, ``per_z`` (each point's series ``partial_sum``), the run's
    ``whitney`` counts once (``n_cubes``, ``n_uncovered``, ``n_above_small_radius``
    beside ``small_radius_threshold``, ``max_level``, ``coverage_threshold``) and
    ``traces.aikawa_total`` (``z_index``, ``lower``, ``upper``).  The manifest's
    ``quasi_additivity_interval`` is null without a positive lower bound."""
    from .criteria import classify_avoidability, uniform_boundary_grid, whitney_sums
    from .kernels import small_radius_threshold
    from .whitney import coverage_threshold

    stamp = _timestamps()
    out.mkdir(parents=True, exist_ok=True)
    config = _build_config(cfg)
    _write_bubbles(cfg, config, out)
    points = uniform_boundary_grid(cfg.domain, cfg.grid_size)
    report = classify_avoidability(config, cfg.alpha, points)
    sums = whitney_sums(config, points, cfg.alpha, cfg.whitney_max_level, cfg.wiener_n_max)

    qa = sums.quasi_additivity()
    empirical = {
        "c2_cubes_per_ball": sums.max_cubes_per_ball,
        "C1_ratio_bound": sums.ratio_bound,
        "quasi_additivity_interval": None if qa is None else list(qa),
    }
    with open(out / "wiener_trace.csv", "w", newline="") as f:
        f.write("z_index,shell_n,term_lower,term_upper,cum_lower,cum_upper,truncated\r\n")
        for i, (terms, shells) in enumerate(zip(sums.wiener, sums.wiener_shells)):
            terms = terms[shells]
            # np.cumsum adds in order, so each cumulative bound is a running total
            floats = np.concatenate((terms, np.cumsum(terms, axis=0)), axis=1)
            f.write(_csv_lines([[str(i)] * len(terms), map(str, np.flatnonzero(shells).tolist()),
                                *(map(repr, col) for col in floats.T.tolist()),
                                map(str, sums.truncated[shells].astype(int).tolist())]))

    verdicts = {
        "format_version": FORMAT_VERSION,
        "aggregate": report.aggregate,
        "separation": float(report.separation.min()),
        "separation_per_shell": report.separation.tolist(),
        "verdict": report.verdict.to_json(),
        "per_z": [{"z": z, "partial_sum": total}
                  for z, total in zip(points.tolist(), report.per_z_totals.tolist())],
        "notes": report.notes,
        "whitney": {
            "max_level": cfg.whitney_max_level,
            "coverage_threshold": coverage_threshold(cfg.domain.dimension,
                                                     cfg.whitney_max_level),
            "n_cubes": sums.n_cubes,
            "n_uncovered": sums.n_uncovered,
            "n_above_small_radius": sums.n_above_small_radius,
            "small_radius_threshold": small_radius_threshold(cfg.alpha, cfg.domain.dimension),
        },
        "traces": {"aikawa_total": [{"z_index": i, "lower": lower, "upper": upper}
                                    for i, (lower, upper) in enumerate(sums.aikawa.tolist())]},
    }
    _write_json(out / "verdicts.json", verdicts)
    _write_manifest(out, "criteria", cfg, stamp, empirical)
    return out / "verdicts.json"


def cmd_simulate(cfg: RunConfig, out: Path) -> Path:
    if cfg.sim is None:
        raise ConfigError("missing field: sim")
    stamp = _timestamps()
    out.mkdir(parents=True, exist_ok=True)
    config = _build_config(cfg)
    _write_bubbles(cfg, config, out)
    x0 = cfg.domain.center
    estimate, outcomes = estimate_hitting(x0, config, cfg.profile, cfg.shell_a, cfg.sim)
    payload = {"format_version": FORMAT_VERSION, **estimate.to_json()}
    _write_json(out / "estimate.json", payload)
    if cfg.per_trajectory_csv:
        _write_trajectories(out / "trajectories.csv", *outcomes)
    else:
        # an earlier run's trajectories would not be this estimate's
        (out / "trajectories.csv").unlink(missing_ok=True)
    _write_manifest(out, "simulate", cfg, stamp)
    return out / "estimate.json"


def _write_trajectories(path: Path, tags, steps, bubbles, finals) -> None:
    """One trajectory per row: traj, outcome, steps, bubble, x_1..x_d; floats
    as repr, CRLF line ends; _CSV_BLOCK rows at a time, a column at a time
    (``geometry._csv_lines``)."""
    header = ["traj", "outcome", "steps", "bubble"] + [f"x_{j + 1}"
                                                       for j in range(finals.shape[1])]
    with open(path, "w", newline="") as f:
        f.write(_csv_lines([name] for name in header))
        for start in range(0, len(tags), _CSV_BLOCK):
            b = slice(start, min(len(tags), start + _CSV_BLOCK))
            f.write(_csv_lines([map(str, range(b.start, b.stop)),
                                map(_TAGS.__getitem__, tags[b].tolist()),
                                map(str, steps[b].tolist()),
                                map(str, bubbles[b].tolist()),
                                *(map(repr, x) for x in finals[b].T.tolist())]))


def cmd_report(run_dirs, out_path: Path, fmt: str = "csv") -> Path:
    """One row per completed run: profile parameters, verdict, estimate.  The
    verdict and the estimate are read only when their stage's manifest
    carries the ``config_hash`` of the directory's ``run_config.json``.  A
    file that does not hold a JSON object is skipped with a warning that
    names it, and the cells it would fill are left empty."""
    rows = []
    for run in run_dirs:
        run = Path(run)
        if not any(run.glob("manifest.*.json")):
            print(f"warning: {run} has no manifest.<command>.json; skipped", file=sys.stderr)
            continue
        row = {"run": run.name}
        config_hash = None
        cfg_path = run / "run_config.json"
        cfg_obj = _report_json(cfg_path)
        if cfg_obj is not None:
            config_hash = _sha256(_canonical_bytes(cfg_obj)).hexdigest()
            prof = _report_field(cfg_obj, "profile", dict, cfg_path)
            kind = _report_field(prof, "profile.kind", str, cfg_path)
            family = RadialProfile.kinds.get(kind)
            row["profile_kind"] = kind
            row["profile_param"] = prof.get(family.param, "") if family else ""
            shells = _report_field(cfg_obj, "shells", dict, cfg_path)
            row["a"] = shells.get("a", "")
            row["shells"] = shells.get("count", "")
        verdicts = _stage_output(run, "criteria", "verdicts.json", config_hash)
        if verdicts is not None:
            row["verdict"] = verdicts.get("aggregate", "")
        est = _stage_output(run, "simulate", "estimate.json", config_hash)
        if est is not None:
            row.update({k: est.get(k, "") for k in ("p_hat", "ci_lo", "ci_hi",
                                                    "timeout_fraction")})
        rows.append(row)

    fields = ["run", "profile_kind", "profile_param", "a", "shells",
              "verdict", "p_hat", "ci_lo", "ci_hi", "timeout_fraction"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        _write_json(out_path, {"format_version": FORMAT_VERSION, "rows": rows})
    else:
        with open(out_path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=fields, restval="")
            w.writeheader()
            w.writerows(rows)
    return out_path


def _report_field(obj: dict, name: str, kind: type, path: Path):
    """The field ``name`` of ``obj``, its last dotted part, if it is a
    ``kind``; the empty ``kind()`` if ``obj`` has no such field, and also,
    with a warning that names ``path`` and ``name``, if it holds another type."""
    value = obj.get(name.rpartition(".")[2], kind())
    if isinstance(value, kind):
        return value
    json_type = {dict: "an object", str: "a string"}[kind]
    print(f"warning: {path}: {name} is not {json_type} (it holds a "
          f"{type(value).__name__}); its cells are left empty", file=sys.stderr)
    return kind()


def _stage_output(run: Path, command: str, name: str, config_hash: str | None) -> dict | None:
    """``run``'s JSON output ``name``, or None if there is none or if (with a
    warning) its stage's manifest does not carry ``config_hash``."""
    path, manifest = run / name, run / f"manifest.{command}.json"
    if not path.exists():
        return None
    if config_hash is not None and manifest.exists():
        record = _report_json(manifest)
        if record is None:
            return None
        if record.get("config_hash") == config_hash:
            return _report_json(path)
    print(f"warning: {path} was not written for {run / 'run_config.json'}; "
          "its cells are left empty", file=sys.stderr)
    return None


def _report_json(path: Path) -> dict | None:
    """The JSON object in ``path``; None if there is no such file, and None
    with a warning that names it if it does not hold a JSON object."""
    if not path.exists():
        return None
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        obj, why = None, str(exc)
    else:
        why = f"it holds a {type(obj).__name__}"
    if isinstance(obj, dict):
        return obj
    print(f"warning: {path} is not a JSON object ({why}); its cells are left empty",
          file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="champagne", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("generate", "whitney", "criteria", "simulate"):
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="JSON run configuration")
        q.add_argument("--out", required=True, help="output directory")
        q.add_argument("--seed", type=int, default=None, help="override config seed")
    r = sub.add_parser("report")
    r.add_argument("runs", nargs="*", help="completed run directories")
    r.add_argument("--out", required=True, help="output file")
    r.add_argument("--format", choices=("json", "csv"), default="csv")
    return p


def cli() -> int:
    """The command line's entry point, which ``python -m champagne`` and the
    ``champagne`` console script call: ``main`` on ``sys.argv`` after one
    ``gc.collect()`` and ``gc.freeze()`` over the imported heap (see the
    module docstring)."""
    gc.collect()
    gc.freeze()
    return main()


def main(argv=None) -> int:
    """Run the subcommand of ``argv`` (``sys.argv[1:]`` by default) in this
    process and return its exit code."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.runs, Path(args.out), args.format)
            return 0
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            sim = None if cfg.sim is None else replace(cfg.sim, seed=args.seed)
            cfg = replace(cfg, seed=args.seed, sim=sim)
        stage = {"generate": cmd_generate, "whitney": cmd_whitney, "criteria": cmd_criteria,
                 "simulate": cmd_simulate}[args.command]
        stage(cfg, Path(args.out))
        return 0
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(cli())
