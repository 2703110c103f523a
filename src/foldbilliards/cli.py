"""Command-line front end: run experiment configs, list builtins.

Exit codes: 0 when the experiment passes or has no pass/fail verdict,
1 when a verdict experiment fails or is inconclusive, 2 when the config
file alone is wrong (it is checked in full before anything runs), 3 on a
numerical or geometric failure inside a run, including a precondition that
only the run can test (no admissible reference point, no sample point).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .ambient import MODEL_KINDS
from .config import load_config, validate_config
from .errors import ConfigError, GeometryError
from .runner import run_experiment
from .table import BUILTIN_TABLES

ENV_OUT_DIR = "FOLDBILLIARDS_OUT_DIR"


def _shipped_configs():
    base = resources.files("foldbilliards") / "configs"
    out = []
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            try:
                raw = json.loads(entry.read_text())
                desc = raw.get("description", "")
            except Exception:
                desc = ""
            out.append((entry.name[:-5], desc, str(entry)))
    return out


def _list_builtins() -> str:
    lines = ["builtin tables:"]
    for name, entry in BUILTIN_TABLES.items():
        lines.append(f"  {name:<22} {entry.description}")
    lines.append(f"ambient models: {', '.join(MODEL_KINDS)}")
    lines.append("shipped configs (foldbilliards run <path>):")
    for name, desc, path in _shipped_configs():
        lines.append(f"  {name:<34} {desc}")
        lines.append(f"  {'':<34} {path}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldbilliards",
        description="Billiard tables, fold surfaces, and their convergence experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--out-dir", help="artifact directory "
                       f"(default: runs/<config name>; env {ENV_OUT_DIR})")
    run_p.add_argument("--seed", type=int, help="override the config RNG seed")
    sub.add_parser("list-builtins", help="list builtin tables, models, configs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-builtins":
        print(_list_builtins())
        return 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            # the override is part of the config as run, which the report echoes
            cfg = validate_config({**cfg.raw, "seed": args.seed})
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out_dir = (args.out_dir or os.environ.get(ENV_OUT_DIR) or cfg.out_dir
               or str(Path("runs") / Path(args.config).stem))

    try:
        rr = run_experiment(cfg, Path(out_dir))
    except GeometryError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3

    verdict = rr.verdict if rr.verdict is not None else "done"
    print(f"{cfg.experiment}: {verdict}  (artifacts in {out_dir})")
    return 0 if rr.passed else 1


if __name__ == "__main__":
    sys.exit(main())
