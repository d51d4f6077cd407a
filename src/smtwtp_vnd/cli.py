"""Command line entry point for running experiments."""

import argparse
import sys
from pathlib import Path

from .engine import DescentRule, InitialOrder, Strategy
from .harness import ExperimentSpec, format_summary_table, run_experiment
from .orlib import parse_int


def _choice(values: dict[str, object]) -> dict:
    """The `type` and `metavar` of a flag whose words stand for `values`."""
    def parse(word: str) -> object:
        if word in values:
            return values[word]
        raise argparse.ArgumentTypeError(f"invalid choice: {word!r} (choose "
                                         f"from {', '.join(map(repr, values))})")
    return {"type": parse, "metavar": "{" + ",".join(values) + "}"}


def _indices(arg: str) -> tuple[int, ...] | None:
    if arg.strip().lower() == "all":
        return None
    try:
        return tuple(map(parse_int, arg.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'all' or comma-separated integers, got {arg!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """Each flag parses into the `ExperimentSpec` field named by its `dest`;
    a flag left out keeps that field's default."""
    parser = argparse.ArgumentParser(
        prog="smtwtp-vnd",
        description=(
            "Run variable neighborhood descent strategies on single machine "
            "total weighted tardiness benchmark instances and write anytime "
            "trace, summary, and crossover CSVs."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--instances", required=True, type=Path,
                        dest="instance_file", metavar="INSTANCES",
                        help="benchmark file (headerless integer tokens)")
    parser.add_argument("--n", required=True, type=parse_int,
                        help="jobs per instance")
    parser.add_argument("--count", required=True, type=parse_int,
                        help="instances in the file")
    parser.add_argument("--index", type=_indices, dest="instance_indices",
                        metavar="INDEX",
                        help="comma-separated 1-based instance indices, or 'all'")
    parser.add_argument("--strategy", dest="strategies",
                        **_choice({s.value: (s,) for s in Strategy}
                                  | {"all": tuple(Strategy)}),
                        help="neighborhood selection strategy")
    parser.add_argument("--descent", dest="descent_rule",
                        **_choice({r.value: r for r in DescentRule}),
                        help="descent rule within a neighborhood")
    parser.add_argument("--probe-budget", type=parse_int,
                        help="candidate evaluations per neighborhood in an "
                             "adaptive probe")
    parser.add_argument("--seed", type=parse_int,
                        help="base random seed; replication r uses seed+r")
    parser.add_argument("--replications", type=parse_int,
                        help="seeded repetitions per (instance, strategy)")
    parser.add_argument("--nested", **_choice({"on": True, "off": False}),
                        help="abolish the adjacent-exchange exclusion of "
                             "EX/FSH/BSH")
    parser.add_argument("--max-evals", type=parse_int, dest="max_evaluations",
                        metavar="MAX_EVALS",
                        help="stop a run after this many objective evaluations")
    parser.add_argument("--initial",
                        **_choice({o.value: o for o in InitialOrder}),
                        help="initial sequence construction")
    parser.add_argument("--best-known", type=Path, dest="best_known_file",
                        metavar="BEST_KNOWN",
                        help="file with one best-known objective per instance")
    parser.add_argument("--out", required=True, type=Path, dest="out_dir",
                        metavar="OUT", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        spec = ExperimentSpec(**vars(parser.parse_args(argv)))
    except ValueError as exc:  # any value out of range or repeated
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
