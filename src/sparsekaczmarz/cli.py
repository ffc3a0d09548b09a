"""Command-line experiment harness.

Subcommands: ``solve`` (single run), ``sweep-lambda``, ``sweep-beta``,
``compare``, ``real``. Each reads an optional JSON config file and applies
on top the override flags whose ``ExperimentConfig`` fields its harness
function reads: ``solve`` takes no ``--trials``, the sweeps no
``--method``, ``sweep-lambda`` no ``--lambda`` and ``sweep-beta`` no
``--beta``. A flag a command does not take is a usage error. Exit codes: 0
success, 2 configuration or usage error, 3 data error, 4 solver error (an
iterate became non-finite).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import (
    ConfigError,
    NonFiniteDataError,
    NonFiniteIterateError,
    ParseError,
    UnsupportedFieldError,
    ZeroRowError,
)
from .harness import (
    _METHOD_IDS,
    _MODE_IDS,
    ExperimentConfig,
    compare_methods,
    load_config,
    real_matrix_bench,
    solve_single,
    sweep_beta,
    sweep_lambda,
)

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_SOLVER_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsekaczmarz",
        description="Row-action solvers for sparse solutions of linear systems",
    )
    # each override's dest is the ExperimentConfig field it writes
    overrides = {
        "--seed": dict(type=int, dest="master_seed", help="master seed override"),
        "--trials": dict(type=int, help="trials per cell override"),
        "--out": dict(dest="out_dir", help="output directory override"),
        "--method": dict(choices=tuple(_METHOD_IDS), dest="methods", help="method override"),
        "--step": dict(choices=tuple(_MODE_IDS), dest="step_mode", help="step mode override"),
        "--lambda": dict(type=float, dest="lam", help="regularization weight override"),
        "--beta": dict(help="subset size: an integer or one of m, m/2, m/4"),
        "--noise": dict(type=float, dest="noise_level", help="relative noise level override"),
    }
    commands = parser.add_subparsers(dest="command", required=True)
    # a command takes the overrides whose fields its harness function reads,
    # --noise included, which the sweeps and real refuse by name
    for name, descr, unread in (
        ("solve", "single seeded run with a full iteration trace", {"--trials"}),
        ("sweep-lambda", "best regularization weight per (m, k) cell", {"--method", "--lambda"}),
        ("sweep-beta", "final error across subset sizes and step modes", {"--method", "--beta"}),
        ("compare", "method comparison grids and convergence curves", set()),
        ("real", "benchmark methods on Matrix Market files", set()),
    ):
        sub = commands.add_parser(name, help=descr)
        sub.add_argument("--config", help="JSON config file")
        for flag, keywords in overrides.items():
            if flag not in unread:
                sub.add_argument(flag, **keywords)
        if name == "real":
            sub.add_argument("paths", nargs="+", help="Matrix Market files")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file (or the defaults), with every override flag that was given
    written into the field of its ``dest``; ``--method`` names the only method."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    updates = {name: value for name, value in vars(args).items() if name in names and value is not None}
    if "methods" in updates:
        updates["methods"] = (updates["methods"],)
    return dataclasses.replace(config, **updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "solve":
            out = solve_single(config)
            trace = out["trace"]
            print(
                f"{out['experiment_id']}: {trace.status.value} after {trace.iterations} iterations, "
                f"final MSE {trace.final_mse:.3e}; trace at {out['path']}"
            )
        elif args.command == "sweep-lambda":
            out = sweep_lambda(config)
            print(f"lambda sweep written to {out['path']}")
        elif args.command == "sweep-beta":
            out = sweep_beta(config)
            print(f"beta sweep written to {out['path']}")
        elif args.command == "compare":
            out = compare_methods(config)
            for label, path in out["paths"].items():
                print(f"{label}: {path}")
        elif args.command == "real":
            out = real_matrix_bench(args.paths, config)
            print(f"real-matrix benchmark written to {out['path']}")
            for path, exc in out["errors"].items():
                print(f"skipped {path}: {exc}", file=sys.stderr)
            if out["errors"] and not out["rows"]:
                return EXIT_DATA_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NonFiniteDataError, ParseError, UnsupportedFieldError, ZeroRowError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except NonFiniteIterateError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
