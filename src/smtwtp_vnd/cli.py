"""Command line entry point for running experiments."""

import argparse
import sys
from pathlib import Path

from .engine import DescentRule, InitialOrder, Strategy
from .harness import ExperimentSpec, format_summary_table, run_experiment
from .orlib import parse_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smtwtp-vnd",
        description=(
            "Run variable neighborhood descent strategies on single machine "
            "total weighted tardiness benchmark instances and write anytime "
            "trace, summary, and crossover CSVs."
        ),
    )
    parser.add_argument("--instances", required=True, type=Path,
                        help="benchmark file (headerless integer tokens)")
    parser.add_argument("--n", required=True, type=parse_int,
                        help="jobs per instance")
    parser.add_argument("--count", required=True, type=parse_int,
                        help="instances in the file")
    parser.add_argument("--index", default="all",
                        help="comma-separated 1-based instance indices, or 'all'")
    parser.add_argument("--strategy", default="all",
                        choices=[s.value for s in Strategy] + ["all"],
                        help="neighborhood selection strategy")
    parser.add_argument("--descent", default="best",
                        choices=[r.value for r in DescentRule],
                        help="descent rule within a neighborhood")
    parser.add_argument("--probe-budget", type=parse_int, default=100,
                        help="candidate evaluations per neighborhood in an "
                             "adaptive probe")
    parser.add_argument("--seed", type=parse_int, default=0,
                        help="base random seed; replication r uses seed+r")
    parser.add_argument("--replications", type=parse_int, default=1,
                        help="seeded repetitions per (instance, strategy)")
    parser.add_argument("--nested", default="off", choices=["on", "off"],
                        help="abolish the adjacent-exchange exclusion of "
                             "EX/FSH/BSH")
    parser.add_argument("--max-evals", type=parse_int, default=None,
                        help="stop a run after this many objective evaluations")
    parser.add_argument("--initial", default="as-given",
                        choices=[o.value for o in InitialOrder],
                        help="initial sequence construction")
    parser.add_argument("--best-known", type=Path, default=None,
                        help="file with one best-known objective per instance")
    parser.add_argument("--out", required=True, type=Path,
                        help="output directory")
    return parser


def _parse_indices(arg: str,
                   parser: argparse.ArgumentParser) -> tuple[int, ...] | None:
    if arg.strip().lower() == "all":
        return None
    try:
        return tuple(parse_int(part) for part in arg.split(",") if part.strip())
    except ValueError:
        parser.error(f"--index must be 'all' or comma-separated integers, got {arg!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    strategies = (
        tuple(Strategy) if args.strategy == "all" else (Strategy(args.strategy),)
    )
    try:
        spec = ExperimentSpec(
            instance_file=args.instances,
            n=args.n,
            count=args.count,
            out_dir=args.out,
            instance_indices=_parse_indices(args.index, parser),
            strategies=strategies,
            replications=args.replications,
            descent_rule=DescentRule(args.descent),
            probe_budget=args.probe_budget,
            seed=args.seed,
            nested=args.nested == "on",
            max_evaluations=args.max_evals,
            initial=InitialOrder(args.initial),
            best_known_file=args.best_known,
        )
    except ValueError as exc:  # any value out of range, repeated or empty --index
        parser.error(str(exc))

    try:
        output = run_experiment(spec)
    except (OSError, ValueError) as exc:  # BenchmarkFormatError included
        print(f"smtwtp-vnd: error: {exc}", file=sys.stderr)
        return 1

    print(format_summary_table(output.summary_file))
    print(f"\nwrote {len(output.files)} files to {output.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
