"""End-to-end benchmark of the VND solver, run through `run_experiment`.

    python3 bench/run.py --workload n100-best --seed 1 --seconds 25 --trace 0

Set-up imports the package from `src/`, generates the workload's instance
set from `--seed` and writes it as an OR-Library file; the package receives
only that file.  The run then repeats whole rounds of `run_experiment`
calls, each into a fresh, empty directory, until `--seconds` have passed.
The first round's cells are checked in full (see checks.py) and every later
round must reproduce its data files byte for byte.  With `--trace 1` the
first round runs untraced and the later rounds run with per-layer spans
(see tracing.py).  The last line of standard output is one JSON object with
the cells attempted and failed and the metrics.  The exit code is 0 unless
a check failed on a cell other than a workload's known fault.
"""

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = "smtwtp_vnd"
COUNT = 125              # instances per generated set, the classical shape
SETUP_REPEATS = 8        # before the rounds
SETUPS_PER_ROUND = 4     # after each round
TRACE_HEADER = "evaluations,best_objective"


@dataclass(frozen=True)
class Workload:
    n: int
    indices: tuple[int, ...] | None     # 1-based; None = all COUNT
    strategies: tuple[str, ...]         # in the harness's order
    descent: str
    nested: bool
    budget: int | None
    replications: int
    brute_force: bool = False
    fault_seed: int | None = None       # see KNOWN_FAULT


# The adaptive strategy reports exhaustion when its capped probes (100
# candidates each) find no improvement, so at n = 100 it can stop at a
# sequence that is not a local optimum (see CHANGES.md).  Whether it does
# depends on the instance, so the n = 100 workloads run the adaptive
# strategy only on instance 1, (rdd, tf) = (0.2, 0.2), of
# `generate_benchmark_set(n=100, seed=fault_seed)`: fixed inputs, apart from
# `--seed`, on which the fault shows on every run.  That cell fails this
# check and is counted in `failed`; any other failure is an error.
KNOWN_FAULT = "check_local_optimum"


# Indices 1, 61 and 121 are the (rdd, tf) = (0.2, 0.2), (0.6, 0.6) and
# (1.0, 1.0) cells of the generated grid.  At a budget of 100,000 the
# tf = 0.2 cells end by exhaustion on some seeds and strategies and by the
# budget on others; the rest reach the budget.  At n = 8 every
# neighborhood has fewer moves than a probe, so desk-grid runs all three
# strategies on every instance.
WORKLOADS = {
    "n100-best": Workload(100, (1, 61, 121), ("random", "fixed"), "best",
                          False, 100_000, 1, fault_seed=2),
    "n100-first-nested": Workload(100, (1, 61, 121), ("random", "fixed"),
                                  "first", True, 100_000, 1, fault_seed=1),
    "desk-grid": Workload(8, None, ("random", "fixed", "adaptive"), "best",
                          False, None, 4, brute_force=True),
}


@dataclass
class Experiment:
    """One `run_experiment` call of a round, and what its cells are checked
    against."""

    instance_file: Path
    benchmark: object                   # the generated BenchmarkSet
    count: int
    indices: tuple[int, ...] | None
    strategies: tuple[str, ...]
    replications: int
    seed: int
    known_fault: bool = False
    optima: dict = field(default_factory=dict)

    @property
    def keys(self):
        """Cells in the order the harness runs and reports them."""
        return [(idx, strategy, self.seed + rep)
                for idx in self.indices or range(1, self.count + 1)
                for rep in range(self.replications)
                for strategy in self.strategies]


def import_package():
    """Import the package from `src/`."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module(PACKAGE)


def set_up(workload, seed, run_dir):
    """Import the package afresh, generate the inputs and write them;
    returns the package, the experiments of one round and the set-up's
    timings."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()  # the dropped copy's garbage is not set-up work
    started = perf_counter()
    pkg = import_package()
    orlib = pkg.orlib
    imported = perf_counter()
    benchmark = orlib.generate_benchmark_set(n=workload.n, seed=seed)
    generated = perf_counter()
    text = orlib.serialize_orlib(benchmark)
    serialized = perf_counter()
    experiments = [Experiment(run_dir / "instances.txt", benchmark, COUNT,
                              workload.indices, workload.strategies,
                              workload.replications, seed)]
    experiments[0].instance_file.write_text(text)
    if workload.fault_seed is not None:
        fault_set = orlib.BenchmarkSet([orlib.generate_instance(
            workload.n, workload.fault_seed, rdd=0.2, tf=0.2)])
        experiments.append(Experiment(run_dir / "fault.txt", fault_set, 1,
                                      None, ("adaptive",), 1,
                                      workload.fault_seed, known_fault=True))
        experiments[1].instance_file.write_text(orlib.serialize_orlib(fault_set))
    times = {"setup_s": perf_counter() - started,
             "orlib.generate_benchmark_set.s": generated - imported,
             "orlib.serialize_orlib.s": serialized - generated}
    return pkg, experiments, times


def trace_name(key):
    idx, strategy, seed = key
    return f"trace_i{idx:03d}_{strategy}_s{seed}.csv"


def run_round(pkg, workload, experiments, round_dir):
    """The round's `run_experiment` calls, each into a fresh, empty
    directory; returns their summed wall time, their outputs and the bytes
    of their data files (metadata.json holds wall times, so it is not a
    data file)."""
    elapsed = 0.0
    outputs, data = [], []
    for number, exp in enumerate(experiments):
        out_dir = round_dir / f"experiment{number}"
        spec = pkg.harness.ExperimentSpec(
            instance_file=exp.instance_file, n=workload.n, count=exp.count,
            out_dir=out_dir, instance_indices=exp.indices,
            strategies=tuple(map(pkg.engine.Strategy, exp.strategies)),
            replications=exp.replications,
            descent_rule=pkg.engine.DescentRule(workload.descent),
            seed=exp.seed, nested=workload.nested,
            max_evaluations=workload.budget)
        started = perf_counter()
        outputs.append(pkg.harness.run_experiment(spec))
        elapsed += perf_counter() - started
        data.append({p.name: p.read_bytes() for p in out_dir.iterdir()
                     if p.suffix == ".csv"})
    shutil.rmtree(round_dir)
    return elapsed, outputs, data


def check_experiment(pkg, workload, exp, output, data):
    """Every check of checks.py on every cell; returns failures by cell and
    the cells as read back."""
    keys = exp.keys
    failures = {key: [] for key in keys}
    cells = {}
    expected_files = {trace_name(key) for key in keys} | {"summary.csv"}
    if len(exp.strategies) > 1:
        expected_files.add("crossover.csv")
    if set(data) != expected_files:
        for key in keys:
            failures[key].append(f"data files differ from the {len(expected_files)} "
                                 f"expected: {sorted(set(data) ^ expected_files)[:3]}")
    rows = [line.split(",") for line in
            data.get("summary.csv", b"").decode().splitlines()[1:]]
    if [(int(r[0]), r[1], int(r[2])) for r in rows] != keys:
        for key in keys:
            failures[key].append("summary.csv rows do not match the cells run")
        return failures, cells
    for key, row in zip(keys, rows):
        lines = data.get(trace_name(key), b"").decode().splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            failures[key].append("trace file missing or without its header")
            continue
        instance = exp.benchmark.instances[key[0] - 1]
        cell = checks.Cell(
            key=key,
            data=(instance.processing, instance.weight, instance.due),
            sequence=tuple(output.results[key].best_sequence),
            final_objective=int(row[3]), evaluations=int(row[4]),
            terminated_by=row[5],
            trace=tuple(tuple(map(int, line.split(","))) for line in lines[1:]),
            budget=workload.budget, nested=workload.nested,
            optimum=exp.optima.get(key[0]))
        cells[key] = cell
        failures[key].extend(checks.check_cell(cell, pkg))
    return failures, cells


def compare_experiment(exp, reference, data):
    """A later round must reproduce the first round's data files."""
    differing = set(checks.differing_files(reference, data))
    shared = differing & {"summary.csv", "crossover.csv"}
    return {key: [f"{name} differs from the first round"
                  for name in sorted(shared | ({trace_name(key)} & differing))]
            for key in exp.keys}


def measure(args, workload, run_dir):
    setups = [set_up(workload, args.seed, run_dir)[2]
              for _ in range(SETUP_REPEATS - 1)]
    pkg, experiments, times = set_up(workload, args.seed, run_dir)
    setups.append(times)
    problems = [f"self-test: {p}" for p in checks.self_test(pkg)]
    started = perf_counter()
    if workload.brute_force:
        for exp in experiments:
            for idx in sorted({key[0] for key in exp.keys}):
                inst = exp.benchmark.instances[idx - 1]
                exp.optima[idx] = checks.brute_force_optimum(
                    (inst.processing, inst.weight, inst.due), pkg)
    brute_force_s = perf_counter() - started
    check_s = 0.0

    round_times, traced_times, traced_metrics = [], [], []
    attempted = failed = 0
    cells, verdicts, reference = [], [], None
    deadline = perf_counter() + args.seconds
    while True:
        round_dir = run_dir / f"round{len(round_times) + len(traced_times)}"
        if args.trace and reference is not None:
            with Tracer(pkg) as tracer:
                elapsed, outputs, data = run_round(pkg, workload, experiments,
                                                   round_dir)
            traced_times.append(elapsed)
            traced_metrics.append(tracer.metrics())
        else:
            elapsed, outputs, data = run_round(pkg, workload, experiments,
                                               round_dir)
            round_times.append(elapsed)
        if reference is None:
            started = perf_counter()
            for exp, output, files in zip(experiments, outputs, data):
                failures, found = check_experiment(pkg, workload, exp, output,
                                                   files)
                verdicts.append(failures)
                cells.extend(found.values())
            reference = data
            check_s = perf_counter() - started
        for exp, verdict, first, files in zip(experiments, verdicts,
                                              reference, data):
            differences = compare_experiment(exp, first, files)
            for key in exp.keys:
                found = verdict[key] + differences[key]
                attempted += 1
                failed += bool(found)
                if found and not (exp.known_fault and all(
                        f.startswith(KNOWN_FAULT + ":") for f in found)):
                    problems.append(f"cell {key}: {'; '.join(found)}")
        # One set-up takes a few hundredths of a second, so repeats follow
        # every round too: their median then spans the run, as the rounds
        # do, rather than one moment of the host's speed.
        setups += [set_up(workload, args.seed, run_dir)[2]
                   for _ in range(SETUPS_PER_ROUND)]
        if perf_counter() >= deadline and (traced_times or not args.trace):
            break

    setup_times = {name: statistics.median(t[name] for t in setups)
                   for name in setups[0]}

    evaluations = sum(cell.evaluations for cell in cells)
    exhausted = sum(c.terminated_by == checks.EXHAUSTED for c in cells)
    known = sum(bool(v[key]) for exp, v in zip(experiments, verdicts)
                if exp.known_fault for key in exp.keys)
    print(f"cells per round {sum(len(exp.keys) for exp in experiments)}: "
          f"{exhausted} exhausted, {len(cells) - exhausted} ended by the "
          f"budget, {known} failing as a known fault; {evaluations} evaluations")
    print(f"checks {check_s:.2f} s, brute-force optima {brute_force_s:.2f} s")
    if not args.trace:
        experiment_s = statistics.median(round_times)
        rss = sum(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        print("round seconds", " ".join(f"{t:.3f}" for t in round_times))
        metrics = {
            "setup_s": (setup_times["setup_s"], "s"),
            "experiment_s": (experiment_s, "s"),
            "evals_per_s": (evaluations / experiment_s, "1/s"),
            "peak_rss_mb": (rss / 1024, "MB"),
        }
        return metrics, attempted, failed, problems

    metrics = {}
    for name, (value, unit) in traced_metrics[0].items():
        if unit in ("count", "ratio"):
            if any(m[name][0] != value for m in traced_metrics):
                problems.append(f"{name} differs between traced rounds")
        else:
            value = statistics.median(m[name][0] for m in traced_metrics)
        metrics[name] = (value, unit)
    ticks = metrics["core.EvalCounter.tick.calls"][0]
    if ticks != evaluations:
        problems.append(f"{ticks} counter ticks for {evaluations} evaluations")
    metrics.update({
        "core.trace_points": (sum(len(c.trace) for c in cells), "count"),
        "harness.bytes_written":
            (sum(len(b) for files in reference for b in files.values()), "B"),
        "orlib.generate_benchmark_set.s":
            (setup_times["orlib.generate_benchmark_set.s"], "s"),
        "orlib.serialize_orlib.s": (setup_times["orlib.serialize_orlib.s"], "s"),
        "traced.experiment_s": (statistics.median(traced_times), "s"),
        "untraced.experiment_s": (statistics.median(round_times), "s"),
    })
    return metrics, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    out_root = BENCH_DIR / "out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        metrics, attempted, failed, problems = measure(
            args, WORKLOADS[args.workload], run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"cells attempted {attempted}, failed {failed}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
