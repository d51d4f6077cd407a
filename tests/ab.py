"""In-process A/B timing of `run_experiment` between two source trees.

    python -m tests.ab --against OTHER_SRC --workload desk-grid --pairs 10

Imports this tree's `smtwtp_vnd` and OTHER_SRC's (a directory that holds an
`smtwtp_vnd` package, such as the `src` of another checkout) into one
process under two module names, and reads the workload from
`bench/run.py`'s `WORKLOADS` by path.  The inputs are written once, as the
bench writes them: `--seed`'s generated set, and the fault instance where
the workload has one.  Each pair times one round of `run_experiment` calls
on each side, each round into a fresh temporary directory, and the side
that goes first alternates from pair to pair.  The data files (every file
but metadata.json) of the two rounds of a pair must be byte for byte
equal, or the tool exits non-zero.  The last line of output is one JSON
object: the median ratio of this tree's round time to OTHER_SRC's, its
quartiles, and the number of pairs in which this tree was faster.
Standard library only.
"""

import argparse
import functools
import gc
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THIS_SRC = ROOT / "src"
BENCH_RUN = ROOT / "bench" / "run.py"
PACKAGE = "smtwtp_vnd"


@functools.cache
def load_bench():
    """`bench/run.py` as a module, with its directory on the path while
    it imports its neighbours."""
    folder = str(BENCH_RUN.parent)
    sys.path.insert(0, folder)
    try:
        spec = importlib.util.spec_from_file_location("ab_bench_run",
                                                      BENCH_RUN)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(folder)
    return module


def workloads() -> dict:
    """The bench's workloads by name."""
    return load_bench().WORKLOADS


def load_tree(src: Path, name: str):
    """The `smtwtp_vnd` package under `src`, imported afresh as `name`."""
    init = src / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src} holds no {PACKAGE} package")
    for module in [m for m in sys.modules
                   if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def write_inputs(pkg, workload, seed: int, folder: Path) -> list[dict]:
    """Write the workload's instance files as bench/run.py does; returns
    each experiment's settings, with its enums by value."""
    orlib = pkg.orlib
    path = folder / "instances.txt"
    path.write_text(orlib.serialize_orlib(
        orlib.generate_benchmark_set(n=workload.n, seed=seed)))
    experiments = [dict(instance_file=path, count=load_bench().COUNT,
                        instance_indices=workload.indices,
                        strategies=workload.strategies,
                        replications=workload.replications, seed=seed)]
    if workload.fault_seed is not None:
        path = folder / "fault.txt"
        path.write_text(orlib.serialize_orlib(orlib.BenchmarkSet([
            orlib.generate_instance(workload.n, workload.fault_seed,
                                    rdd=0.2, tf=0.2)])))
        experiments.append(dict(instance_file=path, count=1,
                                instance_indices=None,
                                strategies=("adaptive",), replications=1,
                                seed=workload.fault_seed))
    return experiments


def timed_round(pkg, workload, experiments, folder: Path):
    """One round of `pkg`'s `run_experiment` calls, each into a fresh
    directory: their summed wall time and their data files' bytes."""
    engine = pkg.engine
    out = Path(tempfile.mkdtemp(prefix="round-", dir=folder))
    elapsed, data = 0.0, {}
    for number, settings in enumerate(experiments):
        spec = pkg.harness.ExperimentSpec(
            **settings | {"strategies": tuple(
                map(engine.Strategy, settings["strategies"]))},
            n=workload.n, out_dir=out / f"experiment{number}",
            descent_rule=engine.DescentRule(workload.descent),
            nested=workload.nested, max_evaluations=workload.budget)
        gc.collect()
        started = perf_counter()
        pkg.harness.run_experiment(spec)
        elapsed += perf_counter() - started
        data |= {f"experiment{number}/{p.name}": p.read_bytes()
                 for p in spec.out_dir.iterdir() if p.name != "metadata.json"}
    shutil.rmtree(out)
    return elapsed, data


def compare(other_src: Path, workload, pairs: int, seed: int) -> dict:
    """Time `pairs` alternating pairs of rounds, this tree against
    `other_src`; exits when a pair's data files differ."""
    sides = [load_tree(THIS_SRC, "ab_this"), load_tree(other_src, "ab_other")]
    ratios, seconds = [], ([], [])
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        folder = Path(tmp)
        experiments = write_inputs(sides[0], workload, seed, folder)
        for pair in range(pairs):
            rounds = {}
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                rounds[side] = timed_round(sides[side], workload, experiments,
                                           folder)
                seconds[side].append(rounds[side][0])
            (this_s, this_data), (other_s, other_data) = rounds[0], rounds[1]
            differ = sorted(name for name in this_data | other_data.keys()
                            if this_data.get(name) != other_data.get(name))
            if differ:
                raise SystemExit(f"pair {pair + 1}: data files differ: "
                                 f"{', '.join(differ[:3])}")
            ratios.append(this_s / other_s)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if pairs > 1 else ratios * 3)
    return {"pairs": pairs, "ratio_median": median, "ratio_q1": q1,
            "ratio_q3": q3, "faster": sum(r < 1 for r in ratios),
            "this_s_median": statistics.median(seconds[0]),
            "against_s_median": statistics.median(seconds[1])}


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        metavar="OTHER_SRC",
                        help="source tree to time this tree against")
    parser.add_argument("--workload", required=True, choices=sorted(known))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    result = compare(args.against.resolve(), known[args.workload],
                     args.pairs, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "against": str(args.against)} | result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
