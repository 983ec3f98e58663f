"""Command-line entry point: run benchmarks, convergence ladders, list kernels."""

from __future__ import annotations

import argparse
import sys

from .bench import convergence_study, run_benchmark
from .errors import ConfigError, RbfError
from .kernels import CATALOG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfbench",
        description="Meshfree RBF collocation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured benchmark suite")
    run_p.add_argument("--config", required=True, help="JSON config file")
    run_p.add_argument("--out", required=True, help="output CSV path")

    conv_p = sub.add_parser("converge", help="run a node-count convergence ladder")
    conv_p.add_argument("--config", required=True, help="JSON config file")
    conv_p.add_argument(
        "--ladder", required=True, help="comma-separated boundary node counts, e.g. 16,32,64"
    )
    conv_p.add_argument("--out", required=True, help="output CSV path")

    kern_p = sub.add_parser("kernels", help="kernel catalog utilities")
    kern_sub = kern_p.add_subparsers(dest="kernels_command", required=True)
    kern_sub.add_parser("list", help="print catalog kernel names, one per line")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "kernels":
        for name in CATALOG:
            print(name)
        return 0

    try:
        if args.command == "run":
            report = run_benchmark(args.config, out_path=args.out)
        else:
            try:
                ladder = [int(tok) for tok in args.ladder.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(f"--ladder takes integer counts, got {args.ladder!r}") from None
            report = convergence_study(args.config, ladder, out_path=args.out)
            for line in report.summaries:
                print(line)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for err in report.errors:
        print(f"solve failed: {err}", file=sys.stderr)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
