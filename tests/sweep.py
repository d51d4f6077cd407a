"""Differential sweep: hash every run of a fixed configuration grid.

    python -m tests.sweep [--against OTHER_SRC]

Runs the grid below in a child process on this tree's `src`, and with
`--against` in a second child process on OTHER_SRC (a directory that holds
an `smtwtp_vnd` package, such as the `src` of another checkout).  Each run
is hashed from its best sequence, best objective, trace points, evaluation
total and termination reason, as in the golden corpus.  The move code is
hashed too, since the engine no longer runs it per candidate: for each n,
kind and nesting, the `enumerate_moves` list, the `neighborhood_size` and
`apply_move` of every move on a fixed sequence.  The sweep prints every
configuration whose hashes differ and the aggregate digest of each tree,
and exits non-zero on any difference.

The two children get different PYTHONHASHSEED values, so `--against src`
checks that runs do not depend on hash order.

The grid: n = 1-12, 15, 20 and 30; two instances each; every strategy x
descent rule x nesting x initial order; no budget or a budget of 37
evaluations; probe budget 1 or 100.  That is 4,320 runs.  The move code
is hashed for n = 1-15 x kind x nesting, 210 configurations.  Standard
library only.
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SIZES = (*range(1, 13), 15, 20, 30)
# (seed offset, rdd, tf) of the two instances of each size.
INSTANCES = ((0, 0.2, 0.6), (1000, 0.6, 0.2))
BUDGETS = (None, 37)
PROBE_BUDGETS = (1, 100)
MOVE_SIZES = range(1, 16)
THIS_SRC = Path(__file__).resolve().parent.parent / "src"


def sha256_json(record) -> str:
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_hashes() -> dict[str, str]:
    """Hash of every run of the grid and of the move code, by configuration
    key."""
    from smtwtp_vnd import (
        DescentRule, InitialOrder, Neighborhood, Strategy, StrategyConfig,
        apply_move, enumerate_moves, generate_instance, neighborhood_size,
        run,
    )

    hashes = {}
    for n, kind, nested in itertools.product(
        MOVE_SIZES, Neighborhood, (False, True)
    ):
        moves = enumerate_moves(kind, n, nested)
        order = tuple(range(n))
        hashes[f"moves n={n} {kind.value} nested={nested}"] = sha256_json([
            [[move.kind.value, move.i, move.j] for move in moves],
            neighborhood_size(kind, n, nested),
            [list(apply_move(order, move)) for move in moves],
        ])
    for n, (offset, rdd, tf) in itertools.product(SIZES, INSTANCES):
        inst = generate_instance(n, n + offset, rdd, tf)
        for strategy, rule, nested, initial, budget, probe in itertools.product(
            Strategy, DescentRule, (False, True), InitialOrder, BUDGETS,
            PROBE_BUDGETS,
        ):
            result = run(inst, StrategyConfig(
                strategy=strategy, descent_rule=rule, probe_budget=probe,
                seed=n, nested=nested, max_evaluations=budget,
                initial=initial,
            ))
            record = [
                list(result.best_sequence),
                result.best_objective,
                [list(point) for point in result.trace.points],
                result.evaluations_total,
                result.terminated_by.value,
            ]
            key = (f"n={n} seed={n + offset} {strategy.value} {rule.value} "
                   f"nested={nested} initial={initial.value} "
                   f"budget={budget} probe={probe}")
            hashes[key] = sha256_json(record)
    return hashes


def digest(hashes: dict[str, str]) -> str:
    text = "".join(f"{key}\t{value}\n" for key, value in sorted(hashes.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def start_child(src: Path, hash_seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def collect(src: Path, child: subprocess.Popen) -> dict[str, str]:
    out, _ = child.communicate()
    if child.returncode != 0:
        sys.exit(f"sweep of {src} failed with exit code {child.returncode}")
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="source tree to compare this tree's runs with")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(run_hashes(), sys.stdout)
        return 0

    trees = [THIS_SRC] + ([args.against.resolve()] if args.against else [])
    for src in trees:
        if not (src / "smtwtp_vnd" / "__init__.py").is_file():
            parser.error(f"{src} holds no smtwtp_vnd package")
    # Both children run at once, one per source tree.
    children = [start_child(src, seed) for seed, src in enumerate(trees, 1)]
    results = [collect(src, child) for src, child in zip(trees, children)]
    for seed, (src, hashes) in enumerate(zip(trees, results), 1):
        print(f"{digest(hashes)}  {len(hashes)} configurations  {src} "
              f"(PYTHONHASHSEED={seed})")
    if len(results) == 1:
        return 0
    mine, theirs = results
    differ = sorted(key for key in mine.keys() | theirs.keys()
                    if mine.get(key) != theirs.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} "
          f"configurations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
