"""Command line interface: run experiments, aggregate plot data, audit results."""

from __future__ import annotations

import argparse
import sys

from .exceptions import ConfigurationError, GenerationError, SweepError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihybrid",
        description="Multi-user MIMO precoding sweeps with reconfigurable antenna patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the sweep described by a config file")
    run.add_argument("config", help="path to an INI config with scenario/solver/sweep sections")
    run.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")

    plot = sub.add_parser("plotdata", help="aggregate results to mean/stderr per sweep point")
    plot.add_argument("results", help="results CSV produced by `run`")
    plot.add_argument("--figure", choices=("power", "rfchains", "antennas"), required=True)
    plot.add_argument("--out", default=None, help="output CSV path")

    audit = sub.add_parser("audit", help="check recorded constraint columns")
    audit.add_argument("results", help="results CSV produced by `run`")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            from .experiments import run_experiment

            out = run_experiment(args.config, worker_count=args.workers)
            print(f"results written to {out}")
            return 0
        if args.command == "plotdata":
            from .experiments import emit_plotdata

            out = emit_plotdata(args.results, args.figure, args.out)
            print(f"plot data written to {out}")
            return 0
        if args.command == "audit":
            from .experiments import audit_results

            failures, warnings = audit_results(args.results)
            for warning in warnings:
                print(f"warning: {warning}")
            if failures:
                for failure in failures:
                    print(failure, file=sys.stderr)
                return 1
            print("all constraint audits pass")
            return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, SweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
