import errno
import json
import math
import os
import random
from pathlib import Path

import pytest

from smtwtp_vnd import (
    BenchmarkFormatError,
    ExperimentSpec,
    RunTrace,
    Strategy,
    crossover_report,
    harness,
    run_experiment,
)
from smtwtp_vnd.harness import (
    SUMMARY_HEADER,
    TRACE_HEADER,
    format_gap,
    format_summary_table,
    read_trace_csv,
    write_trace_csv,
)

TINY_TEXT = "3 1 2  2 1 1  2 4 3"


def tiny_file(tmp_path: Path) -> Path:
    path = tmp_path / "instances.txt"
    path.write_text(TINY_TEXT)
    return path


def make_spec(tmp_path: Path, **overrides) -> ExperimentSpec:
    defaults = dict(
        instance_file=tiny_file(tmp_path),
        n=3,
        count=1,
        out_dir=tmp_path / "out",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def trace(points) -> RunTrace:
    return RunTrace(points=list(points))


# --- crossover -------------------------------------------------------------

def test_crossover_switch_point():
    a = trace([(1, 100), (10, 50)])
    b = trace([(1, 90), (20, 60)])
    report = crossover_report({"a": a, "b": b})
    assert report["a", "b"] == 10
    assert report["b", "a"] is None


def test_crossover_identical_traces_have_no_switch():
    a = trace([(1, 100), (10, 50)])
    b = trace([(1, 100), (10, 50)])
    report = crossover_report({"a": a, "b": b})
    assert report["a", "b"] is None
    assert report["b", "a"] is None


def test_crossover_single_point_traces():
    report = crossover_report(
        {"fast": trace([(1, 5)]), "slow": trace([(1, 7)])}
    )
    assert report["fast", "slow"] == 1
    assert report["slow", "fast"] is None


def test_crossover_switch_points_lie_on_a_trace_axis():
    a = trace([(1, 50), (90, 10)])
    b = trace([(3, 40), (15, 30)])
    report = crossover_report({"a": a, "b": b})
    axes = {1, 90} | {3, 15}
    for point in report.values():
        assert point is None or point in axes


def test_crossover_rejects_empty_or_lonely_traces():
    with pytest.raises(ValueError, match="at least two"):
        crossover_report({"a": trace([(1, 5)])})
    with pytest.raises(ValueError, match="empty"):
        crossover_report({"a": trace([(1, 5)]), "b": trace([])})


def test_crossover_three_way():
    a = trace([(1, 100), (5, 20)])
    b = trace([(1, 80), (9, 70)])
    c = trace([(2, 20)])
    report = crossover_report({"a": a, "b": b, "c": c})
    assert report["a", "b"] == 5
    assert report["c", "b"] == 2
    assert report["c", "a"] == 2
    assert report["a", "c"] is None


def reference_switch(a, b):
    """`crossover_report`'s docstring read literally: the smallest
    breakpoint k such that a is never worse than b at every breakpoint >= k
    and strictly better at one of them, else None."""
    def value(points, at):
        seen = [v for e, v in points if e <= at]
        return seen[-1] if seen else math.inf

    breakpoints = sorted({e for e, _ in a + b})
    for k in breakpoints:
        tail = [(value(a, t), value(b, t)) for t in breakpoints if t >= k]
        if all(va <= vb for va, vb in tail) and any(va < vb for va, vb in tail):
            return k
    return None


def test_crossover_matches_its_definition():
    rng = random.Random(9)
    for _ in range(1000):
        pointss = []
        for _ in range(rng.randint(2, 4)):
            if pointss and rng.random() < 0.3:
                # a copy of an earlier trace from some point on: equal tails
                other = rng.choice(pointss)
                cut = rng.randrange(len(other))
                head = [(e, v + rng.randint(1, 3)) for e, v in other[:cut]]
                pointss.append(head + other[cut:])
                continue
            evals = sorted(rng.sample(range(1, 25), rng.randint(1, 5)))
            values = sorted(rng.sample(range(12), len(evals)), reverse=True)
            pointss.append(list(zip(evals, values)))  # often starts after 1
        labels = [f"s{i}" for i in range(len(pointss))]
        report = crossover_report(
            {label: trace(p) for label, p in zip(labels, pointss)})
        assert report == {
            (a, b): reference_switch(pa, pb)
            for a, pa in zip(labels, pointss)
            for b, pb in zip(labels, pointss) if a != b}


# --- gap formatting ---------------------------------------------------------

@pytest.mark.parametrize("final,best,expected", [
    (105, 100, "0.0500"),
    (100, 100, "0.0000"),
    (99, 100, "-0.0100"),
    (4, 3, "0.3333"),
    (400, 300, "0.3333"),
    (2, 30000, "-0.9999"),
    # A gap halfway between two steps rounds to the even one.
    (20001, 20000, "0.0000"),
    (20003, 20000, "0.0002"),
    (20005, 20000, "0.0002"),
    (19997, 20000, "-0.0002"),
    (100, 0, ""),
    (100, None, ""),
])
def test_format_gap(final, best, expected):
    assert format_gap(final, best) == expected


def test_format_gap_rounds_exactly():
    # 1/30000 * 10000 = 1/3 -> 0; 2/30000 * 10000 = 2/3 -> 1
    assert format_gap(30001, 30000) == "0.0000"
    assert format_gap(30002, 30000) == "0.0001"


# --- trace files ------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    original = RunTrace(points=[(1, 312), (4, 280), (977, 3)])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, original)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    reparsed = read_trace_csv(path)
    assert reparsed.points == original.points


def test_read_trace_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


@pytest.mark.parametrize("line", [
    "1_0,3", "10,\u0663", " +20 , 5", "+20,5", "7", "1,2,3", "", "1,"])
def test_read_trace_rejects_bad_lines(tmp_path, line):
    # Trace files follow the token rule of the benchmark files: an optional
    # `-` and ASCII digits, two fields per line.
    path = tmp_path / "bad.csv"
    path.write_text(f"{TRACE_HEADER}\n1,9\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}: line 3: "):
        read_trace_csv(path)


# --- run_experiment ----------------------------------------------------------

def test_experiment_on_tiny_instance(tmp_path):
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,))
    output = run_experiment(spec)
    summary = output.summary_file.read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert summary[1].startswith("1,fixed,0,5,")
    assert "all_neighborhoods_exhausted" in summary[1]
    key = (1, "fixed", 0)
    assert output.results[key].best_objective == 5
    reparsed = read_trace_csv(output.trace_files[key])
    assert reparsed.points == output.results[key].trace.points


def test_spec_keeps_its_own_tuples(tmp_path):
    # A caller's lists, changed after the spec checked them, change nothing.
    (tmp_path / "two.txt").write_text(TINY_TEXT + "  1 1 1  1 1 1  0 0 0")
    indices, strategies = [1], [Strategy.FIXED]
    spec = make_spec(tmp_path, instance_file=tmp_path / "two.txt", count=2,
                     instance_indices=indices, strategies=strategies)
    indices[0] = 0
    strategies.append(Strategy.FIXED)
    assert spec.instance_indices == (1,)
    assert spec.strategies == (Strategy.FIXED,)
    assert hash(spec) == hash(make_spec(
        tmp_path, instance_file=tmp_path / "two.txt", count=2,
        instance_indices=(1,), strategies=(Strategy.FIXED,)))
    output = run_experiment(spec)
    assert list(output.trace_files) == [(1, "fixed", 0)]
    assert output.results[1, "fixed", 0].best_objective == 5


def test_experiment_replications_use_consecutive_seeds(tmp_path):
    spec = make_spec(
        tmp_path, strategies=(Strategy.FIXED,), replications=2, seed=5
    )
    output = run_experiment(spec)
    assert (1, "fixed", 5) in output.trace_files
    assert (1, "fixed", 6) in output.trace_files
    # FIXED with an as-given initial uses no randomness: identical traces.
    first = output.trace_files[(1, "fixed", 5)].read_text()
    second = output.trace_files[(1, "fixed", 6)].read_text()
    assert first == second


def test_experiment_builds_one_config_per_strategy_and_seed(tmp_path,
                                                            monkeypatch):
    instances = tmp_path / "two.txt"
    instances.write_text(TINY_TEXT + "  2 5 1  1 3 2  4 1 6")
    spec = make_spec(tmp_path, instance_file=instances, count=2,
                     strategies=(Strategy.ADAPTIVE, Strategy.RANDOM),
                     replications=3, seed=4)
    spec_config, built = ExperimentSpec.config, []

    def counted_config(self, strategy, seed):
        built.append((strategy, seed))
        return spec_config(self, strategy, seed)

    harness_run, ran = harness.run, []

    def recorded_run(instance, config):
        ran.append((config.strategy, config.seed))
        return harness_run(instance, config)

    monkeypatch.setattr(ExperimentSpec, "config", counted_config)
    monkeypatch.setattr(harness, "run", recorded_run)
    output = run_experiment(spec)
    pairs = [(s, seed) for seed in (4, 5, 6)
             for s in (Strategy.RANDOM, Strategy.ADAPTIVE)]
    assert sorted(built, key=pairs.index) == pairs
    assert ran == [(Strategy(label), seed)
                   for _, label, seed in output.results]


def test_experiment_emits_crossover_for_multiple_strategies(tmp_path):
    spec = make_spec(tmp_path)
    output = run_experiment(spec)
    assert output.crossover_file is not None
    lines = output.crossover_file.read_text().splitlines()
    assert lines[0] == "instance,seed,first,second,never_worse_from"
    assert len(lines) == 1 + 6  # three strategies, six ordered pairs


def test_experiment_single_strategy_has_no_crossover(tmp_path):
    spec = make_spec(tmp_path, strategies=(Strategy.ADAPTIVE,))
    output = run_experiment(spec)
    assert output.crossover_file is None


def test_experiment_gap_column(tmp_path):
    best_known = tmp_path / "best.txt"
    best_known.write_text("4\n")
    spec = make_spec(
        tmp_path, strategies=(Strategy.FIXED,), best_known_file=best_known
    )
    output = run_experiment(spec)
    row = output.summary_file.read_text().splitlines()[1]
    assert row.endswith(",0.2500")  # (5 - 4) / 4


def test_experiment_gap_omitted_for_zero_best_known(tmp_path):
    best_known = tmp_path / "best.txt"
    best_known.write_text("0\n")
    spec = make_spec(
        tmp_path, strategies=(Strategy.FIXED,), best_known_file=best_known
    )
    output = run_experiment(spec)
    row = output.summary_file.read_text().splitlines()[1]
    assert row.endswith(",")


def test_experiment_refuses_best_known_of_another_count(tmp_path):
    best_known = tmp_path / "best.txt"
    best_known.write_text("4 5\n")
    spec = make_spec(tmp_path, best_known_file=best_known)
    with pytest.raises(BenchmarkFormatError,
                       match="expected 1 best-known values, found 2"):
        run_experiment(spec)
    assert not spec.out_dir.exists()  # refused before any cell ran


def test_experiment_rerun_is_byte_identical(tmp_path):
    spec_a = make_spec(tmp_path, out_dir=tmp_path / "a", seed=9)
    spec_b = make_spec(tmp_path, out_dir=tmp_path / "b", seed=9)
    out_a = run_experiment(spec_a)
    out_b = run_experiment(spec_b)
    assert out_a.summary_file.read_bytes() == out_b.summary_file.read_bytes()
    assert out_a.crossover_file.read_bytes() == out_b.crossover_file.read_bytes()
    for key, path in out_a.trace_files.items():
        assert path.read_bytes() == out_b.trace_files[key].read_bytes()


def csv_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}


def test_experiment_rerun_into_same_directory(tmp_path):
    spec = make_spec(tmp_path, seed=9)
    first = csv_bytes(run_experiment(spec).out_dir)
    assert csv_bytes(run_experiment(spec).out_dir) == first


@pytest.mark.parametrize("first,second,named", [
    ({"instance_indices": (1,)}, {"instance_indices": (2,)},
     "trace_i001_adaptive_s0.csv, trace_i001_fixed_s0.csv"),
    ({}, {"strategies": (Strategy.FIXED,)}, "crossover.csv"),
    ({"replications": 2}, {}, "trace_i001_adaptive_s1.csv"),
])
def test_experiment_refuses_output_of_another_run(tmp_path, first, second,
                                                  named):
    instances = tmp_path / "two.txt"
    instances.write_text(TINY_TEXT + "  " + TINY_TEXT)
    out_dir = run_experiment(
        make_spec(tmp_path, instance_file=instances, count=2, **first)
    ).out_dir
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    with pytest.raises(ValueError, match=f"would not overwrite: {named}"):
        run_experiment(
            make_spec(tmp_path, instance_file=instances, count=2, **second)
        )
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("leftover,refused", [
    ("trace_i001_random_s0.csv.tmp", True),
    ("crossover.csv.tmp", True),
    ("trace_i001_fixed_s0.csv.tmp", False),
    ("summary.csv.tmp", False),
])
def test_experiment_refuses_a_half_written_file_of_another_run(
        tmp_path, leftover, refused):
    # A run killed while it writes `<name>` leaves `<name>.tmp`.  A fixed-only
    # run writes neither a random trace nor `crossover.csv`, so their
    # temporary files are another run's; its own write replaces the others.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / leftover).write_text("0,1\n")
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,))
    if refused:
        with pytest.raises(ValueError,
                           match=f"would not overwrite: {leftover}$"):
            run_experiment(spec)
        assert [p.name for p in out_dir.iterdir()] == [leftover]
    else:
        output = run_experiment(spec)
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            p.name for p in output.files)


@pytest.mark.parametrize("overrides", [
    {"strategies": (Strategy.FIXED,)}, {}, {"replications": 2}])
def test_experiment_files_are_what_it_wrote(tmp_path, overrides):
    spec = make_spec(tmp_path, **overrides)
    output = run_experiment(spec)
    names = [p.name for p in output.files]
    assert sorted(names) == sorted(p.name for p in output.out_dir.iterdir())
    # The traces come first, in cell order: instance, seed, strategy.
    cells = [f"trace_i001_{s.value}_s{seed}.csv"
             for seed in range(spec.replications)
             for s in Strategy if s in spec.strategies]
    assert names[:len(cells)] == cells
    assert output.files[:len(cells)] == list(output.trace_files.values())
    assert names[len(cells):] == ["summary.csv", *(
        ["crossover.csv"] if len(spec.strategies) > 1 else []),
        "metadata.json"]


def fail_on_call(call, error):
    """`call`, but raising `error` instead of returning."""
    def failing(*args, **kwargs):
        call(*args, **kwargs)
        raise error
    return failing


@pytest.mark.parametrize("target,error", [
    ("replace", OSError("disk full")),
    ("replace", KeyboardInterrupt()),
    ("write", OSError("disk full")),
    ("link", KeyboardInterrupt()),
], ids=["replace-oserror", "replace-interrupt", "write-oserror",
        "link-interrupt"])
def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, target,
                                               error):
    # The second replication's trace equals the first's, so it is a link.
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,), replications=2)
    if target == "replace":
        monkeypatch.setattr(harness.os, "replace",
                            fail_on_call(lambda *args: None, error))
    elif target == "link":  # the temporary file is linked, then it fails
        monkeypatch.setattr(harness.os, "link", fail_on_call(os.link, error))
    else:  # the temporary file is written, then the write fails
        monkeypatch.setattr(Path, "write_text",
                            fail_on_call(Path.write_text, error))
    with pytest.raises(type(error)):
        run_experiment(spec)
    kept = ["trace_i001_fixed_s0.csv"] if target == "link" else []
    assert os.listdir(spec.out_dir) == kept


@pytest.mark.parametrize("seed", [0, 1], ids=["written", "linked"])
@pytest.mark.parametrize("make_tmp", [os.link, os.symlink])
def test_experiment_never_writes_through_a_stale_temporary_file(
        tmp_path, make_tmp, seed):
    # A killed run may leave `<name>.tmp` as a link to another file; the
    # next run replaces it and leaves that file alone.
    keep = tmp_path / "keep.txt"
    keep.write_text("keep\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    make_tmp(keep, out_dir / f"trace_i001_fixed_s{seed}.csv.tmp")
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,), replications=2)
    output = run_experiment(spec)
    assert keep.read_text() == "keep\n"
    assert sorted(os.listdir(out_dir)) == sorted(p.name for p in output.files)
    assert not any(p.is_symlink() for p in output.files)
    assert output.files[0].read_text().startswith(TRACE_HEADER)


def two_instance_spec(tmp_path: Path, out: str, **overrides) -> ExperimentSpec:
    instances = tmp_path / "two.txt"
    instances.write_text(TINY_TEXT + "  2 5 1  1 3 2  4 1 6")
    return make_spec(tmp_path, instance_file=instances, count=2,
                     out_dir=tmp_path / out, **overrides)


def test_equal_traces_are_one_file(tmp_path):
    output = run_experiment(two_instance_spec(tmp_path, "out",
                                              replications=2))
    traces = list(output.trace_files.values())
    content = {p: p.read_bytes() for p in traces}
    pairs = [(a, b) for a in traces for b in traces if a != b]
    # Fixed and adaptive draw nothing from the seed; random does.
    assert {content[a] == content[b] for a, b in pairs} == {True, False}
    for a, b in pairs:
        assert os.path.samefile(a, b) == (content[a] == content[b])
    assert all(p.stat().st_nlink == 1 for p in output.files[len(traces):])


def test_experiment_writes_what_it_cannot_link(tmp_path, monkeypatch):
    linked = run_experiment(two_instance_spec(tmp_path, "linked",
                                              replications=2))

    def no_link(source, target):
        raise OSError(errno.EMLINK, "Too many links")

    monkeypatch.setattr(harness.os, "link", no_link)
    output = run_experiment(two_instance_spec(tmp_path, "written",
                                              replications=2))
    assert [p.name for p in output.out_dir.iterdir()
            if p.name.endswith(".tmp")] == []
    assert all(p.stat().st_nlink == 1 for p in output.files)
    assert csv_bytes(output.out_dir) == csv_bytes(linked.out_dir)


def test_a_full_file_is_linked_no_more(tmp_path, monkeypatch):
    # Past the file system's link limit, here 2, the next equal trace is
    # written, and the ones after it link to that new file.
    real_link = os.link

    def link_up_to_two(source, target):
        if os.stat(source).st_nlink >= 2:
            raise OSError(errno.EMLINK, "Too many links")
        real_link(source, target)

    monkeypatch.setattr(harness.os, "link", link_up_to_two)
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,), replications=4)
    traces = list(run_experiment(spec).trace_files.values())
    assert [p.stat().st_nlink for p in traces] == [2, 2, 2, 2]
    assert os.path.samefile(traces[0], traces[1])
    assert os.path.samefile(traces[2], traces[3])
    assert not os.path.samefile(traces[1], traces[2])


def test_interrupted_experiment_keeps_its_finished_traces(tmp_path,
                                                          monkeypatch):
    instances = tmp_path / "two.txt"
    instances.write_text(TINY_TEXT + "  2 5 1  1 3 2  4 1 6")
    strategies = (Strategy.FIXED, Strategy.ADAPTIVE)
    whole = run_experiment(make_spec(
        tmp_path, instance_file=instances, count=2, strategies=strategies,
        out_dir=tmp_path / "whole"))
    harness_run, calls = harness.run, []

    def run_until_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return harness_run(*args)

    monkeypatch.setattr(harness, "run", run_until_third)
    spec = make_spec(tmp_path, instance_file=instances, count=2,
                     strategies=strategies, out_dir=tmp_path / "cut")
    with pytest.raises(KeyboardInterrupt):
        run_experiment(spec)
    finished = whole.files[:2]
    assert sorted(os.listdir(spec.out_dir)) == sorted(p.name for p in finished)
    for path in finished:
        assert (spec.out_dir / path.name).read_bytes() == path.read_bytes()


def test_experiment_metadata_holds_wall_times(tmp_path):
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,))
    output = run_experiment(spec)
    metadata = json.loads(output.metadata_file.read_text())
    assert "created" in metadata
    assert len(metadata["cells"]) == 1
    cell = metadata["cells"][0]
    assert cell["instance"] == 1
    assert cell["strategy"] == "fixed"
    assert cell["wall_seconds"] >= 0


def test_format_summary_table(tmp_path):
    spec = make_spec(tmp_path, strategies=(Strategy.FIXED,))
    output = run_experiment(spec)
    table = format_summary_table(output.summary_file)
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["instance", "strategy", "seed"]
    assert lines[1].split()[0] == "1"
