"""Experiment driver: run strategies over benchmark instances and write
trace CSVs, a summary CSV, and crossover reports.

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
from dataclasses import dataclass, field
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

ALL_STRATEGIES = (Strategy.RANDOM, Strategy.FIXED, Strategy.ADAPTIVE)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: which instances, which strategies, how many seeded
    replications, and the full strategy configuration."""

    instance_file: Path
    n: int
    count: int
    out_dir: Path
    instance_indices: tuple[int, ...] | None = None  # 1-based; None = all
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    replications: int = 1
    descent_rule: DescentRule = DescentRule.BEST_IMPROVEMENT
    probe_budget: int = 100
    seed: int = 0
    nested: bool = False
    max_evaluations: int | None = None
    initial: InitialOrder = InitialOrder.AS_GIVEN
    best_known_file: Path | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.instance_indices is not None:
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


@dataclass
class CrossoverReport:
    """For every ordered pair of run labels, the evaluation count from which
    the first run's best objective is never worse than the second's (and
    strictly better somewhere), or None when no such switch exists."""

    pairs: dict[tuple[str, str], int | None] = field(default_factory=dict)

    def switch_point(self, first: str, second: str) -> int | None:
        return self.pairs[(first, second)]


def _step_value(trace: RunTrace, evals: list[int], at: int) -> float:
    """Best objective of `trace`, whose evaluation column is `evals`, at
    evaluation count `at`; +inf before the first recorded point."""
    i = bisect_right(evals, at)
    return trace.points[i - 1][1] if i else float("inf")


def crossover_report(traces: list[RunTrace], labels: list[str]) -> CrossoverReport:
    """Pairwise step-function comparison of anytime traces.

    Each trace extends its last best objective to infinity.  For the ordered
    pair (a, b) the report holds the smallest breakpoint k such that a is
    never worse than b at any breakpoint >= k and strictly better at one of
    them; identical tails yield None.
    """
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    if len(labels) != len(traces):
        raise ValueError("labels and traces must align")
    for label, trace in zip(labels, traces):
        if not trace.points:
            raise ValueError(f"trace {label!r} is empty")

    columns = [[e for e, _ in trace.points] for trace in traces]
    report = CrossoverReport()
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
            report.pairs[(a, b)] = switch
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


def _write_atomic(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content)
    os.replace(tmp, path)


def write_trace_csv(path: Path, trace: RunTrace) -> None:
    lines = [TRACE_HEADER]
    lines.extend(f"{evals},{best}" for evals, best in trace.points)
    _write_atomic(path, "\n".join(lines) + "\n")


def read_trace_csv(path: Path) -> RunTrace:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing trace header")
    points = []
    for line in lines[1:]:
        evals, best = line.split(",")
        points.append((int(evals), int(best)))
    trace = RunTrace(points=points)
    trace.final_evaluations = points[-1][0] if points else 0
    return trace


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
    one trace CSV per cell plus summary, crossover, and metadata files."""
    benchmark = load_benchmark(spec)
    indices = spec.instance_indices or tuple(range(1, spec.count + 1))
    strategies = tuple(s for s in ALL_STRATEGIES if s in spec.strategies)

    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_files: dict[tuple[int, str, int], Path] = {}
    results: dict[tuple[int, str, int], RunResult] = {}
    summary_lines = [SUMMARY_HEADER]
    crossover_lines = [CROSSOVER_HEADER]
    metadata_cells = []
    emit_crossover = len(strategies) >= 2

    for idx in indices:
        instance = benchmark.instances[idx - 1]
        best_known = (
            benchmark.best_known[idx - 1]
            if benchmark.best_known is not None
            else None
        )
        for rep in range(spec.replications):
            seed = spec.seed + rep
            rep_traces = []
            for strategy in strategies:
                config = StrategyConfig(
                    strategy=strategy,
                    descent_rule=spec.descent_rule,
                    probe_budget=spec.probe_budget,
                    seed=seed,
                    nested=spec.nested,
                    max_evaluations=spec.max_evaluations,
                    initial=spec.initial,
                )
                started = time.perf_counter()
                result = run(instance, config)
                wall = time.perf_counter() - started

                key = (idx, strategy.value, seed)
                path = out_dir / f"trace_i{idx:03d}_{strategy.value}_s{seed}.csv"
                write_trace_csv(path, result.trace)
                trace_files[key] = path
                results[key] = result
                rep_traces.append((strategy.value, result.trace))
                summary_lines.append(
                    f"{idx},{strategy.value},{seed},{result.best_objective},"
                    f"{result.evaluations_total},{result.terminated_by.value},"
                    f"{format_gap(result.best_objective, best_known)}"
                )
                metadata_cells.append({
                    "instance": idx,
                    "strategy": strategy.value,
                    "seed": seed,
                    "wall_seconds": wall,
                })
            if emit_crossover:
                labels = [label for label, _ in rep_traces]
                report = crossover_report(
                    [trace for _, trace in rep_traces], labels
                )
                for (a, b), switch in sorted(
                    report.pairs.items(), key=lambda kv: (labels.index(kv[0][0]),
                                                          labels.index(kv[0][1]))
                ):
                    value = "none" if switch is None else str(switch)
                    crossover_lines.append(f"{idx},{seed},{a},{b},{value}")

    summary_file = out_dir / "summary.csv"
    _write_atomic(summary_file, "\n".join(summary_lines) + "\n")

    crossover_file = None
    if emit_crossover:
        crossover_file = out_dir / "crossover.csv"
        _write_atomic(crossover_file, "\n".join(crossover_lines) + "\n")

    metadata_file = out_dir / "metadata.json"
    _write_atomic(metadata_file, json.dumps({
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cells": metadata_cells,
    }, indent=2) + "\n")

    return ExperimentOutput(
        out_dir=out_dir,
        trace_files=trace_files,
        summary_file=summary_file,
        crossover_file=crossover_file,
        metadata_file=metadata_file,
        results=results,
    )


def format_summary_table(summary_file: Path) -> str:
    """Align the summary CSV into a readable fixed-width table."""
    rows = [line.split(",") for line in
            summary_file.read_text().strip().splitlines()]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
