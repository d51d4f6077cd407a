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
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from .core import RunTrace, _require, _require_count
from .engine import RunResult, RunSettings, Strategy, StrategyConfig, run
from .orlib import BenchmarkSet, load_best_known, parse_int, parse_orlib

TRACE_HEADER = "evaluations,best_objective"
SUMMARY_HEADER = "instance,strategy,seed,final_objective,evaluations,terminated_by,gap"
CROSSOVER_HEADER = "instance,seed,first,second,never_worse_from"
# Taken once: `fields` would cost each cell's `config` about a fifth more.
_SETTINGS = [f.name for f in fields(RunSettings)]


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(RunSettings):
    """One experiment: which instances, which strategies, how many seeded
    replications, and the run settings of every cell, each by keyword."""

    instance_file: Path
    n: int
    count: int
    out_dir: Path
    instance_indices: tuple[int, ...] | None = None  # 1-based; None = all
    strategies: tuple[Strategy, ...] = tuple(Strategy)
    replications: int = 1
    best_known_file: Path | None = None

    def __post_init__(self):
        # Tuples, as `BenchmarkSet` keeps its instances: the caller's list
        # may change after this check, and a frozen spec is hashable.
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.instance_indices is not None:
            object.__setattr__(self, "instance_indices",
                               tuple(self.instance_indices))
        _require_count(n=self.n, count=self.count,
                       replications=self.replications)
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.instance_indices is not None:
            if not self.instance_indices:
                raise ValueError("instance_indices is empty (None selects all)")
            for index in self.instance_indices:
                _require(int, instance_indices=index)
            bad = [i for i in self.instance_indices if not 1 <= i <= self.count]
            if bad:
                raise ValueError(
                    f"instance indices {bad} outside [1, {self.count}]"
                )
        for strategy in self.strategies:  # bad run settings fail here
            self.config(strategy, self.seed)
        # Cells are keyed by (index, strategy, seed): a repeat has no cell.
        for name, values in (
                ("instance indices", self.instance_indices or ()),
                ("strategies", [s.value for s in self.strategies])):
            repeated = sorted(v for v, k in Counter(values).items() if k > 1)
            if repeated:
                raise ValueError(f"{name} {repeated} repeated")

    def config(self, strategy: Strategy, seed: int) -> StrategyConfig:
        """The configuration of this experiment's (strategy, seed) runs."""
        settings = {name: getattr(self, name) for name in _SETTINGS}
        return StrategyConfig(strategy, **settings | {"seed": seed})


@dataclass
class ExperimentOutput:
    """The files a run writes plus its in-memory results, keyed by
    (instance index, strategy value, seed).  `files` lists every path
    written: the traces in cell order, then `summary.csv`, `crossover.csv`
    (only when two or more strategies run) and `metadata.json`."""

    out_dir: Path
    trace_files: dict[tuple[int, str, int], Path]
    summary_file: Path
    crossover_file: Path | None
    metadata_file: Path
    results: dict[tuple[int, str, int], RunResult]
    files: list[Path]


def _switch_point(a: list[tuple[int, int]],
                  b: list[tuple[int, int]]) -> int | None:
    """The first breakpoint of the last run of breakpoints at which trace
    points `a` are never worse than `b`, if `a` is strictly better somewhere
    in that run; else None.  A trace is +inf before its first point."""
    steps_a, steps_b = dict(a), dict(b)
    va = vb = float("inf")
    start, strictly_better = None, False
    for k in sorted(steps_a.keys() | steps_b.keys()):
        va, vb = steps_a.get(k, va), steps_b.get(k, vb)
        if va > vb:
            start, strictly_better = None, False
        else:
            start = k if start is None else start
            strictly_better = strictly_better or va < vb
    return start if strictly_better else None


def crossover_report(
        traces: dict[str, RunTrace]) -> dict[tuple[str, str], int | None]:
    """Pairwise step-function comparison of anytime traces, keyed by label.

    Each trace is +inf before its first point and keeps its last best
    objective after its last.  For every ordered pair (a, b) of labels, in
    the mapping's order, the result maps (a, b) to the smallest breakpoint k
    (an evaluation count of either trace) such that a is never worse than b
    at every breakpoint >= k and strictly better at one of them, else to
    None.
    """
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    for label, trace in traces.items():
        if not trace.points:
            raise ValueError(f"trace {label!r} is empty")
    return {(a, b): _switch_point(trace_a.points, trace_b.points)
            for a, trace_a in traces.items()
            for b, trace_b in traces.items() if a != b}


def format_gap(final_objective: int, best_known: int | None) -> str:
    """Relative gap to the best-known value, as an exact rational rounded to
    four decimal places, a tie to the even last digit (0.00005 gives 0.0000,
    0.00015 and 0.00025 give 0.0002); empty when best-known is missing or
    zero."""
    if not best_known:
        return ""
    scaled = round(Fraction(final_objective - best_known, best_known) * 10000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"


def _write_lines(path: Path, lines: list[str],
                 written: dict[str, Path] | None = None) -> None:
    """Write `lines` to `path` through a temporary file, so `path` holds the
    old or the new content, never part of it.  If the write or the rename
    fails, or is interrupted, the temporary file is removed.

    `written`, when given, maps each text written so far to the first file
    that holds it.  A text found there is not written again: the temporary
    file becomes a hard link to that file.  Files of equal content then
    share one inode, so such a file must be replaced, never edited in
    place.  Where the link fails (too many links to one file, or no hard
    links on this file system), the text is written, and later files of
    that text link to this one."""
    tmp = path.with_name(path.name + ".tmp")
    text = "\n".join(lines) + "\n"
    first = path if written is None else written.setdefault(text, path)
    try:
        tmp.unlink(missing_ok=True)  # a stale one may link to another file
        if first is not path:
            try:
                os.link(first, tmp)
            except OSError:
                first = written[text] = path
        if first is path:
            tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace_csv(path: Path, trace: RunTrace,
                    written: dict[str, Path] | None = None) -> None:
    """Write `trace` to `path`; `written` is as for `_write_lines`."""
    _write_lines(path, [TRACE_HEADER]
                 + [f"{evals},{best}" for evals, best in trace.points],
                 written)


def read_trace_csv(path: Path) -> RunTrace:
    """The trace that `write_trace_csv` wrote to `path`.  Raises ValueError,
    naming the path and the 1-based line, for a missing header, a line
    without exactly two fields or a field that `parse_int` refuses."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing trace header")
    points = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {number}: {len(fields)} fields, "
                             "not 2")
        try:
            points.append((parse_int(fields[0]), parse_int(fields[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return RunTrace(points=points)


def load_benchmark(spec: ExperimentSpec) -> BenchmarkSet:
    """The instances of `spec.instance_file`.  It stays a function because
    bench/tracing.py wraps it by name."""
    return parse_orlib(Path(spec.instance_file).read_text(), spec.n,
                       spec.count)


def run_experiment(spec: ExperimentSpec) -> ExperimentOutput:
    """Run every (instance, strategy, replication) cell of `spec` and write
    one trace CSV per cell plus summary, crossover, and metadata files.

    Raises ValueError, before any cell runs, when `spec.out_dir` holds a
    trace or crossover file, or the temporary file of one, that this run
    would not overwrite."""
    benchmark = load_benchmark(spec)
    best_known = ([None] * spec.count if spec.best_known_file is None
                  else load_best_known(Path(spec.best_known_file).read_text(),
                                       spec.count))
    indices = (range(1, spec.count + 1) if spec.instance_indices is None
               else spec.instance_indices)
    seeds = range(spec.seed, spec.seed + spec.replications)
    strategies = [s for s in Strategy if s in spec.strategies]

    # The plan, made before any cell runs: each cell's config, in canonical
    # strategy order, and every path the run writes.  A config is frozen, so
    # the cells of one (strategy, seed) share it.
    out_dir = Path(spec.out_dir)
    configs = {(s, seed): spec.config(s, seed)
               for seed in seeds for s in strategies}
    cells = {(idx, s.value, seed): configs[s, seed]
             for idx in indices for seed in seeds for s in strategies}
    trace_files = {key: out_dir / "trace_i{:03d}_{}_s{}.csv".format(*key)
                   for key in cells}
    summary_file = out_dir / "summary.csv"
    crossover_file = out_dir / "crossover.csv" if len(strategies) > 1 else None
    metadata_file = out_dir / "metadata.json"
    files = [p for p in (*trace_files.values(), summary_file, crossover_file,
                         metadata_file) if p is not None]

    # A run killed while it writes `<name>` leaves `<name>.tmp` behind.
    planned = {p.name for p in files}
    stale = sorted(p.name for pattern in ("trace_*.csv", "crossover.csv")
                   for tmp in ("", ".tmp") for p in out_dir.glob(pattern + tmp)
                   if p.name.removesuffix(tmp) not in planned)
    if stale:
        raise ValueError(f"{out_dir} holds output of another run that this "
                         f"one would not overwrite: {', '.join(stale[:3])}")
    out_dir.mkdir(parents=True, exist_ok=True)

    # Replications that draw nothing from their seed trace alike: the first
    # file of each text is written, the others link to it.
    results: dict[tuple[int, str, int], RunResult] = {}
    wall_seconds, written = {}, {}
    for key, config in cells.items():
        started = time.perf_counter()
        results[key] = run(benchmark.instances[key[0] - 1], config)
        wall_seconds[key] = time.perf_counter() - started
        write_trace_csv(trace_files[key], results[key].trace, written)

    _write_lines(summary_file, [SUMMARY_HEADER] + [
        f"{idx},{label},{seed},{r.best_objective},{r.evaluations_total},"
        f"{r.terminated_by.value},"
        f"{format_gap(r.best_objective, best_known[idx - 1])}"
        for (idx, label, seed), r in results.items()
    ])

    if crossover_file is not None:
        lines = [CROSSOVER_HEADER]
        for idx in indices:
            for seed in seeds:
                report = crossover_report({
                    s.value: results[idx, s.value, seed].trace
                    for s in strategies})
                lines.extend(f"{idx},{seed},{a},{b},{'none' if k is None else k}"
                             for (a, b), k in report.items())
        _write_lines(crossover_file, lines)

    _write_lines(metadata_file, [json.dumps({
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cells": [{"instance": idx, "strategy": label, "seed": seed,
                   "wall_seconds": wall}
                  for (idx, label, seed), wall in wall_seconds.items()],
    }, indent=2)])

    return ExperimentOutput(out_dir, trace_files, summary_file, crossover_file,
                            metadata_file, results, files)


def format_summary_table(summary_file: Path) -> str:
    """Align the summary CSV into a readable fixed-width table."""
    rows = [line.split(",") for line in
            summary_file.read_text().strip().splitlines()]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
