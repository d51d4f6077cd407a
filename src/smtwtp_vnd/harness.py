"""Experiment driver: run strategies over benchmark instances and write
trace CSVs, a summary CSV, and crossover reports.

Each cell's trace is written as soon as it has run, so a crash keeps the
finished ones; the other files are rendered from the results at the end.

Output files are deterministic for a given (spec, seed): anything
time-dependent (timestamps, wall-clock durations) is confined to a separate
metadata file so reruns reproduce the data files byte for byte.  Wall time
is informational only; comparisons use evaluation counts.
"""

import json
import os
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import RunTrace
from .engine import (
    DescentRule,
    InitialOrder,
    RunResult,
    Strategy,
    StrategyConfig,
    run,
)
from .orlib import BenchmarkSet, load_best_known, parse_orlib

TRACE_HEADER = "evaluations,best_objective"
SUMMARY_HEADER = "instance,strategy,seed,final_objective,evaluations,terminated_by,gap"
CROSSOVER_HEADER = "instance,seed,first,second,never_worse_from"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: which instances, which strategies, how many seeded
    replications, and the full strategy configuration."""

    instance_file: Path
    n: int
    count: int
    out_dir: Path
    instance_indices: tuple[int, ...] | None = None  # 1-based; None = all
    strategies: tuple[Strategy, ...] = tuple(Strategy)
    replications: int = 1
    descent_rule: DescentRule = DescentRule.BEST_IMPROVEMENT
    probe_budget: int = 100
    seed: int = 0
    nested: bool = False
    max_evaluations: int | None = None
    initial: InitialOrder = InitialOrder.AS_GIVEN
    best_known_file: Path | None = None

    def __post_init__(self):
        if min(self.n, self.count, self.replications) < 1:
            raise ValueError("n, count and replications must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.instance_indices is not None:
            if not self.instance_indices:
                raise ValueError("instance_indices is empty (None selects all)")
            bad = [i for i in self.instance_indices if not 1 <= i <= self.count]
            if bad:
                raise ValueError(
                    f"instance indices {bad} outside [1, {self.count}]"
                )
            duplicates = sorted(
                i for i, k in Counter(self.instance_indices).items() if k > 1
            )
            if duplicates:
                raise ValueError(f"instance indices {duplicates} repeated")
        for strategy in self.strategies:  # bad run settings fail here
            self.config(strategy, self.seed)

    def config(self, strategy: Strategy, seed: int) -> StrategyConfig:
        """The configuration of this experiment's (strategy, seed) runs."""
        return StrategyConfig(
            strategy, descent_rule=self.descent_rule,
            probe_budget=self.probe_budget, seed=seed, nested=self.nested,
            max_evaluations=self.max_evaluations, initial=self.initial)


@dataclass
class ExperimentOutput:
    """Written files plus the in-memory results, keyed by
    (instance index, strategy value, seed)."""

    out_dir: Path
    trace_files: dict[tuple[int, str, int], Path]
    summary_file: Path
    crossover_file: Path | None
    metadata_file: Path
    results: dict[tuple[int, str, int], RunResult]

    @property
    def files(self) -> list[Path]:
        written = list(self.trace_files.values()) + [self.summary_file]
        if self.crossover_file is not None:
            written.append(self.crossover_file)
        written.append(self.metadata_file)
        return written


def _step_value(trace: RunTrace, evals: list[int], at: int) -> float:
    """Best objective of `trace`, whose evaluation column is `evals`, at
    evaluation count `at`; +inf before the first recorded point."""
    i = bisect_right(evals, at)
    return trace.points[i - 1][1] if i else float("inf")


def crossover_report(traces: list[RunTrace],
                     labels: list[str]) -> dict[tuple[str, str], int | None]:
    """Pairwise step-function comparison of anytime traces.

    Each trace extends its last best objective to infinity.  For every
    ordered pair (a, b) of labels, in label order, the result maps (a, b) to
    the smallest breakpoint k such that a is never worse than b at any
    breakpoint >= k and strictly better at one of them; identical tails
    yield None.
    """
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    if len(labels) != len(traces):
        raise ValueError("labels and traces must align")
    for label, trace in zip(labels, traces):
        if not trace.points:
            raise ValueError(f"trace {label!r} is empty")

    columns = [[e for e, _ in trace.points] for trace in traces]
    report = {}
    for a, trace_a, evals_a in zip(labels, traces, columns):
        for b, trace_b, evals_b in zip(labels, traces, columns):
            if a == b:
                continue
            breakpoints = sorted(set(evals_a) | set(evals_b))
            switch: int | None = None
            strictly_better = False
            for k in reversed(breakpoints):
                va = _step_value(trace_a, evals_a, k)
                vb = _step_value(trace_b, evals_b, k)
                if va > vb:
                    break
                if va < vb:
                    strictly_better = True
                if strictly_better:
                    switch = k
            report[a, b] = switch
    return report


def format_gap(final_objective: int, best_known: int | None) -> str:
    """Relative gap to the best-known value, as an exact rational rounded to
    four decimal places; empty when best-known is missing or zero."""
    if not best_known:
        return ""
    scaled = round(Fraction(final_objective - best_known, best_known) * 10000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"


def _write_lines(path: Path, lines: list[str]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def write_trace_csv(path: Path, trace: RunTrace) -> None:
    _write_lines(path, [TRACE_HEADER]
                 + [f"{evals},{best}" for evals, best in trace.points])


def read_trace_csv(path: Path) -> RunTrace:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing trace header")
    points = []
    for line in lines[1:]:
        evals, best = line.split(",")
        points.append((int(evals), int(best)))
    return RunTrace(points=points)


def load_benchmark(spec: ExperimentSpec) -> BenchmarkSet:
    text = Path(spec.instance_file).read_text()
    benchmark = parse_orlib(text, spec.n, spec.count)
    if spec.best_known_file is None:
        return benchmark
    return BenchmarkSet(benchmark.instances, load_best_known(
        Path(spec.best_known_file).read_text(), spec.count
    ))


def run_experiment(spec: ExperimentSpec) -> ExperimentOutput:
    """Run every (instance, strategy, replication) cell of `spec` and write
    one trace CSV per cell plus summary, crossover, and metadata files.

    Raises ValueError, before any cell runs, when `spec.out_dir` holds a
    trace or crossover file that this run would not overwrite."""
    benchmark = load_benchmark(spec)
    indices = (range(1, spec.count + 1) if spec.instance_indices is None
               else spec.instance_indices)
    seeds = range(spec.seed, spec.seed + spec.replications)
    strategies = [s.value for s in Strategy if s in spec.strategies]
    emit_crossover = len(strategies) >= 2

    out_dir = Path(spec.out_dir)
    trace_files = {
        (idx, label, seed): out_dir / f"trace_i{idx:03d}_{label}_s{seed}.csv"
        for idx in indices
        for seed in seeds
        for label in strategies
    }
    kept = {p.name for p in trace_files.values()} | (
        {"crossover.csv"} if emit_crossover else set())
    stale = sorted(p.name for pattern in ("trace_*.csv", "crossover.csv")
                   for p in out_dir.glob(pattern) if p.name not in kept)
    if stale:
        raise ValueError(f"{out_dir} holds output of another run that this "
                         f"one would not overwrite: {', '.join(stale[:3])}")
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[tuple[int, str, int], RunResult] = {}
    wall_seconds = {}
    for key, path in trace_files.items():
        idx, label, seed = key
        started = time.perf_counter()
        results[key] = run(benchmark.instances[idx - 1],
                           spec.config(Strategy(label), seed))
        wall_seconds[key] = time.perf_counter() - started
        write_trace_csv(path, results[key].trace)

    best_known = benchmark.best_known or [None] * spec.count
    summary_file = out_dir / "summary.csv"
    _write_lines(summary_file, [SUMMARY_HEADER] + [
        f"{idx},{label},{seed},{r.best_objective},{r.evaluations_total},"
        f"{r.terminated_by.value},"
        f"{format_gap(r.best_objective, best_known[idx - 1])}"
        for (idx, label, seed), r in results.items()
    ])

    crossover_file = None
    if emit_crossover:
        lines = [CROSSOVER_HEADER]
        for idx in indices:
            for seed in seeds:
                report = crossover_report(
                    [results[idx, label, seed].trace for label in strategies],
                    strategies)
                lines.extend(f"{idx},{seed},{a},{b},{'none' if k is None else k}"
                             for (a, b), k in report.items())
        crossover_file = out_dir / "crossover.csv"
        _write_lines(crossover_file, lines)

    metadata_file = out_dir / "metadata.json"
    _write_lines(metadata_file, [json.dumps({
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cells": [{"instance": idx, "strategy": label, "seed": seed,
                   "wall_seconds": wall}
                  for (idx, label, seed), wall in wall_seconds.items()],
    }, indent=2)])

    return ExperimentOutput(out_dir, trace_files, summary_file, crossover_file,
                            metadata_file, results)


def format_summary_table(summary_file: Path) -> str:
    """Align the summary CSV into a readable fixed-width table."""
    rows = [line.split(",") for line in
            summary_file.read_text().strip().splitlines()]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
