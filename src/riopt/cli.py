"""Benchmark command line.

    bench frechet|quadgame|robust-pca|verify|sweep --config <path> --out <dir>
          [--seed N] [--rounds N]

Exit codes: 0 success, 2 configuration error (including an unreadable
config file, an --out that cannot be a directory and a run too large to
allocate), 3 numeric failure (including a failing verification suite).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    ConfigError,
    ExperimentConfig,
    expand_sweep_file,
    run_experiment,
    sweep,
)
from .geometry import FrechetMeanError, GeometryError

_SUBCOMMANDS = {
    "frechet": "frechet",
    "quadgame": "quadgame",
    "robust-pca": "robust_pca",
    "verify": "verify",
}


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"config file cannot be read: {exc}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")


def _check_out(path: str) -> None:
    """Raise ConfigError unless ``path`` is a directory or can be made one:
    the path, or the nearest of its parents that exists, is a directory.
    Checked before the run, and creates nothing."""
    for p in (Path(path), *Path(path).parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out {path}: {p} is not a directory")
            return


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_SUBCOMMANDS) + ["sweep"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--rounds", type=int, default=None, help="override config T")
    return parser


def _overrides(args) -> dict:
    """The config fields set by --seed and --rounds."""
    return {k: v for k, v in (("seed", args.seed), ("T", args.rounds)) if v is not None}


def _resolve_config(args) -> ExperimentConfig:
    experiment = _SUBCOMMANDS[args.command]
    raw = _load_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {raw!r}")
    raw = dict(raw)
    stated = raw.setdefault("experiment", experiment)
    if stated != experiment:
        raise ConfigError(
            f"config experiment {stated!r} does not match subcommand {args.command!r}"
        )
    return dataclasses.replace(ExperimentConfig.from_dict(raw), **_overrides(args))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "sweep":
            if args.config is None:
                raise ConfigError("sweep requires --config")
            raw = _load_json(args.config)
            configs = [dataclasses.replace(c, **_overrides(args)) for c in expand_sweep_file(raw)]
            report = sweep(configs, out=args.out)
            failed = [r for r in report["runs"] if r["status"] != "ok"]
            for r in failed:
                print(f"run {r['index']}: {r['error']}", file=sys.stderr)
            return 3 if failed and len(failed) == len(report["runs"]) else 0
        cfg = _resolve_config(args)
        result = run_experiment(cfg, out=args.out)
        if cfg.experiment == "verify" and not result.summary["passed"]:
            print("verification suite FAILED", file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an allocation numpy or Python refused: the run is too large for the machine
        detail = f": {exc}" if str(exc) else ""
        print(f"config error: the run does not fit in memory{detail}", file=sys.stderr)
        return 2
    except (GeometryError, FrechetMeanError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
