"""CLI, run configuration, persistence, and combined reports.

Subcommands: generate | whitney | criteria | simulate | report.  All outputs
are deterministic for a fixed config and seed; manifest timestamps honor
SOURCE_DATE_EPOCH so full runs can be byte-identical when required.  Each
subcommand writes its own ``manifest.<command>.json``, so a later command
keeps an earlier one's record.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
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
    BubbleConfig,
    RadialProfile,
    WeightFunction,
    _check_shell_domain,
    _shell_phi,
    generate_shell_config,
    shell_radii,
)
from .criteria import aikawa_sum  # noqa: F401  (re-exported: the per-point sum)
from .criteria import classify_avoidability, uniform_boundary_grid, whitney_sums
from .geometry import BallDomain, _number
from .kernels import Constants
from .simulate import APPROXIMATION_NOTES as SIM_NOTES, SimParams, estimate_hitting
from .whitney import ball_cube_incidence, coverage_threshold, cube_counts, decompose

__all__ = ["RunConfig", "ConfigError", "main", "cmd_generate", "cmd_whitney",
           "cmd_criteria", "cmd_simulate", "cmd_report"]

FORMAT_VERSION = "1"
_TOP_LEVEL_KEYS = frozenset({"format_version", "domain", "constants", "profile", "weight",
                             "shells", "whitney", "criteria", "per_trajectory_csv", "sim"})
_SECTION_KEYS = {"shells": frozenset({"a", "count", "seed"}),
                 "whitney": frozenset({"max_level"}),
                 "criteria": frozenset({"grid", "wiener_n_max"}),
                 "domain": frozenset({"center", "radius"}),
                 "constants": frozenset({"alpha", "C_G", "C"}),
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
    constants: Constants
    profile: object
    weight: object
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
        try:
            _check_shell_domain(self.domain)
            _shell_phi(self.profile, shell_radii(self.shell_a, self.shells))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> dict:
        out = {
            "format_version": self.format_version,
            "domain": self.domain.to_json(),
            "constants": self.constants.to_json(),
            "profile": self.profile.to_json(),
            "weight": self.weight.to_json(),
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
            constants = Constants.from_json(constants)
            sim = None
            if "sim" in obj:
                sim_obj = {"alpha": constants.alpha, **sim_obj}
                for key in ("alpha", "h", "boundary_eps"):
                    if key in sim_obj:
                        _number(sim_obj[key], f"sim.{key}")
                for key in ("max_steps", "n_traj", "seed"):
                    if key in sim_obj:
                        sim_obj[key] = _integer(sim_obj[key], f"sim.{key}")
                sim = SimParams(**sim_obj)
                # the criteria and the simulator must decide the same process
                if sim.alpha != constants.alpha:
                    raise ConfigError(
                        f"sim.alpha {sim.alpha!r} differs from constants.alpha {constants.alpha!r}"
                    )
            return cls(
                domain=BallDomain.from_json(domain),
                constants=constants,
                profile=RadialProfile.from_json(_object(obj["profile"], "profile")),
                weight=WeightFunction.from_json(_object(obj.get("weight", {"kind": "one"}),
                                                        "weight")),
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

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()

    def hash(self) -> str:
        """SHA-256 of the canonical bytes in hex, the manifests' ``config_hash``,
        from CPython's built-in module: importing ``hashlib`` would map
        OpenSSL's libcrypto (3.4 MiB of resident memory) into every CLI stage."""
        return _sha256_hex(self.canonical_bytes())

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                obj = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(obj)


def _object(block, name: str) -> dict:
    """The config block ``name``; one that is not a JSON object is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    return block


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


def _sha256_hex(data: bytes) -> str:
    """``hashlib.sha256(data).hexdigest()``, without importing hashlib."""
    return _sha256(data).hexdigest()


def _timestamps() -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    now = int(epoch) if epoch is not None else int(time.time())
    return {"unix": now, "source_date_epoch": epoch is not None}


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def _write_manifest(out: Path, command: str, cfg: RunConfig, empirical: dict | None = None):
    _write_json(out / f"manifest.{command}.json", {
        "format_version": FORMAT_VERSION,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
        "empirical": empirical or {},
        "timestamps": _timestamps(),
        "approximation_notes": APPROXIMATION_NOTES,
    })


def _build_config(cfg: RunConfig) -> BubbleConfig:
    """The run's bubbles, generated from the RunConfig alone, so that no
    output depends on what an earlier command left in the output directory."""
    return generate_shell_config(cfg.domain, cfg.profile, cfg.shell_a, cfg.shells, cfg.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig, out: Path) -> Path:
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
    _write_manifest(out, "generate", cfg, empirical)
    return out / "bubbles.csv"


def cmd_whitney(cfg: RunConfig, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    dec = decompose(cfg.domain, cfg.whitney_max_level)
    dec.to_csv(out / "whitney.csv")
    per_level = {str(lev): int(dec.level_indices(lev).shape[0]) for lev in dec.levels}
    empirical = {
        "n_cubes": len(dec),
        "cubes_per_level": per_level,
        "coverage_threshold": dec.coverage_threshold,
    }
    _write_manifest(out, "whitney", cfg, empirical)
    return out / "whitney.csv"


def cmd_criteria(cfg: RunConfig, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    config = _build_config(cfg)
    if not (out / "bubbles.csv").exists():
        config.to_csv(out / "bubbles.csv")
    points = uniform_boundary_grid(cfg.domain, cfg.grid_size)
    report = classify_avoidability(config, cfg.constants, points, cfg.profile, cfg.weight)
    vars(config).pop("index", None)  # the separation infimum was its last use

    n_cubes = sum(cube_counts(cfg.domain, cfg.whitney_max_level).values())
    empirical = {}
    traces = {}
    if config.n:
        inc = ball_cube_incidence(cfg.domain, cfg.whitney_max_level,
                                  config.centers, config.radii)
        sums = whitney_sums(inc, config, points, cfg.constants, cfg.wiener_n_max)
        empirical["c2_cubes_per_ball"] = sums.max_cubes_per_ball
        empirical["C1_ratio_bound"] = sums.ratio_bound
        qa = sums.quasi_additivity()
        empirical["quasi_additivity_interval"] = [qa[0], qa[1]]

        with open(out / "wiener_trace.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["z_index", "shell_n", "term_lower", "term_upper",
                        "cum_lower", "cum_upper", "truncated"])
            for i, wie in enumerate(sums.wiener):
                truncated = set(wie.truncated_shells.tolist())
                # np.cumsum adds in order, so each cumulative bound is a running total
                for sh, lo, hi, cum_lo, cum_hi in zip(
                    wie.shells.tolist(), wie.term_lower.tolist(), wie.term_upper.tolist(),
                    np.cumsum(wie.term_lower).tolist(), np.cumsum(wie.term_upper).tolist(),
                ):
                    w.writerow([i, sh, repr(lo), repr(hi), repr(cum_lo), repr(cum_hi),
                                int(sh in truncated)])
        traces["aikawa_total"] = [
            {"z_index": i, "lower": aik.total[0], "upper": aik.total[1],
             "n_cubes": aik.n_cubes, "warnings": aik.warnings}
            for i, aik in enumerate(sums.aikawa)
        ]

    verdicts = {
        "format_version": FORMAT_VERSION,
        "aggregate": report.aggregate,
        "separation": report.separation,
        "verdict": report.verdict.to_json(),
        "per_z": [{"z": z, "partial_sum": total}
                  for z, total in zip(points.tolist(), report.per_z_totals.tolist())],
        "notes": report.notes,
        "whitney": {
            "n_cubes": n_cubes,
            "max_level": cfg.whitney_max_level,
            "coverage_threshold": coverage_threshold(cfg.domain.dimension,
                                                     cfg.whitney_max_level),
        },
        "traces": traces,
    }
    _write_json(out / "verdicts.json", verdicts)
    _write_manifest(out, "criteria", cfg, empirical)
    return out / "verdicts.json"


def cmd_simulate(cfg: RunConfig, out: Path) -> Path:
    if cfg.sim is None:
        raise ConfigError("missing field: sim")
    out.mkdir(parents=True, exist_ok=True)
    config = _build_config(cfg)
    if not (out / "bubbles.csv").exists():
        config.to_csv(out / "bubbles.csv")
    x0 = cfg.domain.center
    estimate, outcomes = estimate_hitting(x0, config, cfg.profile, cfg.sim)
    payload = {"format_version": FORMAT_VERSION, **estimate.to_json()}
    _write_json(out / "estimate.json", payload)
    if cfg.per_trajectory_csv:
        tags, steps, bubbles, finals = outcomes
        from .simulate import _TAGS

        with open(out / "trajectories.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["traj", "outcome", "steps", "bubble"]
                       + [f"x_{j + 1}" for j in range(cfg.domain.dimension)])
            for t in range(len(tags)):
                w.writerow([t, _TAGS[int(tags[t])], int(steps[t]), int(bubbles[t])]
                           + [repr(float(v)) for v in finals[t]])
    _write_manifest(out, "simulate", cfg)
    return out / "estimate.json"


def cmd_report(run_dirs, out_path: Path, fmt: str = "csv") -> Path:
    """One row per completed run: profile parameters, verdict, estimate."""
    rows = []
    for run in run_dirs:
        run = Path(run)
        if not any(run.glob("manifest.*.json")):
            print(f"warning: {run} has no manifest.<command>.json; skipped", file=sys.stderr)
            continue
        row = {"run": run.name}
        cfg_path = run / "run_config.json"
        if cfg_path.exists():
            with open(cfg_path) as f:
                cfg_obj = json.load(f)
            prof = cfg_obj.get("profile", {})
            family = RadialProfile.kinds.get(prof.get("kind"))
            row["profile_kind"] = prof.get("kind", "")
            row["profile_param"] = prof.get(family.param, "") if family else ""
            row["weight_kind"] = cfg_obj.get("weight", {}).get("kind", "")
            row["a"] = cfg_obj.get("shells", {}).get("a", "")
            row["shells"] = cfg_obj.get("shells", {}).get("count", "")
        verdicts = run / "verdicts.json"
        if verdicts.exists():
            with open(verdicts) as f:
                row["verdict"] = json.load(f).get("aggregate", "")
        estimate = run / "estimate.json"
        if estimate.exists():
            with open(estimate) as f:
                est = json.load(f)
            row["p_hat"] = est.get("p_hat", "")
            row["ci_lo"] = est.get("ci_lo", "")
            row["ci_hi"] = est.get("ci_hi", "")
            row["timeout_fraction"] = est.get("timeout_fraction", "")
        rows.append(row)

    fields = ["run", "profile_kind", "profile_param", "weight_kind", "a", "shells",
              "verdict", "p_hat", "ci_lo", "ci_hi", "timeout_fraction"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        _write_json(out_path, {"format_version": FORMAT_VERSION, "rows": rows})
    else:
        with open(out_path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=fields)
            w.writeheader()
            for row in rows:
                w.writerow({k: row.get(k, "") for k in fields})
    return out_path


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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.runs, Path(args.out), args.format)
            return 0
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            sim = None if cfg.sim is None else replace(cfg.sim, seed=args.seed)
            cfg = replace(cfg, seed=args.seed, sim=sim)
        out = Path(args.out)
        if args.command == "generate":
            cmd_generate(cfg, out)
        elif args.command == "whitney":
            cmd_whitney(cfg, out)
        elif args.command == "criteria":
            cmd_criteria(cfg, out)
        elif args.command == "simulate":
            cmd_simulate(cfg, out)
        return 0
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
