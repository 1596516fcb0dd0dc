"""Command-line front end: load a config, run one experiment, write its CSV.

Exit codes: 0 on success, 2 when the config cannot be used, 3 when the
computation itself reports an inconsistency (e.g. a path decomposition
that fails its own accuracy contract).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import AutomatonError
from .design import DecompositionError, DesignError
from .experiments import (EXPERIMENTS, ConfigError, emit_curves, load_config,
                          run_experiment)
from .games import GameConfigError, NashIterationError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repgame",
        description="Run one experiment from a JSON config and write a CSV table "
                    "into the output directory.")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="JSON config (see configs/fig_flow.json)")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (created if missing)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        table = run_experiment(config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dest = emit_curves(table, out / f"{args.experiment}.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GameConfigError, NashIterationError, AutomatonError,
            DesignError, DecompositionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3

    print(dest)
    return 0
