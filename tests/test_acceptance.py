"""Acceptance suite: one test per release criterion, each printing a
PASS line.  Criteria 2 and 4 share session-scoped workloads whose traces
criterion 7 re-validates.
"""

import random
import time
from dataclasses import dataclass

import pytest

from smtwtp_vnd import (
    ExperimentSpec,
    Instance,
    Neighborhood,
    RunResult,
    Strategy,
    StrategyConfig,
    Termination,
    brute_force_optimum,
    certify_local_optimum,
    crossover_report,
    enumerate_moves,
    generate_benchmark_set,
    neighborhood_size,
    objective_value,
    parse_orlib,
    run,
    run_experiment,
    serialize_orlib,
)


def report(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


def assert_monotone(points, context: str) -> None:
    for (e1, b1), (e2, b2) in zip(points, points[1:]):
        assert e2 > e1, f"{context}: evaluations not strictly increasing"
        assert b2 <= b1, f"{context}: best objective worsened"


@dataclass
class DeskScaleRuns:
    runs: list[tuple[Instance, StrategyConfig, RunResult]]
    optima: list[int]
    elapsed: float


@pytest.fixture(scope="session")
def desk_runs() -> DeskScaleRuns:
    """>= 200 generated instances with n in 4..8, all three strategies."""
    started = time.perf_counter()
    from smtwtp_vnd import generate_instance

    rdd_tf_grid = [(0.2, 0.2), (0.6, 0.4), (1.0, 0.6), (0.4, 0.8), (0.8, 1.0)]
    runs = []
    optima = []
    seed = 5000
    for n in range(4, 9):
        for i in range(40):
            rdd, tf = rdd_tf_grid[i % len(rdd_tf_grid)]
            instance = generate_instance(n=n, seed=seed, rdd=rdd, tf=tf)
            seed += 1
            best, _ = brute_force_optimum(instance)
            optima.append(best)
            for strategy in Strategy:
                config = StrategyConfig(strategy=strategy, seed=seed)
                runs.append((instance, config, run(instance, config)))
    return DeskScaleRuns(runs, optima, time.perf_counter() - started)


@dataclass
class BenchmarkRuns:
    instance_count: int
    results: dict[str, RunResult]
    walls: dict[str, float]


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory) -> BenchmarkRuns:
    """A 125-instance, 100-job benchmark file round-tripped through disk,
    with all three strategies run on instance 1 under a 10^6 budget."""
    path = tmp_path_factory.mktemp("benchmark") / "wt100.txt"
    path.write_text(serialize_orlib(generate_benchmark_set(n=100, seed=987)))
    benchmark = parse_orlib(path.read_text(), n=100, count=125)
    instance = benchmark.instances[0]

    results: dict[str, RunResult] = {}
    walls: dict[str, float] = {}
    for strategy in Strategy:
        config = StrategyConfig(
            strategy=strategy, seed=1, max_evaluations=10**6
        )
        started = time.perf_counter()
        results[strategy.value] = run(instance, config)
        walls[strategy.value] = time.perf_counter() - started
    return BenchmarkRuns(len(benchmark.instances), results, walls)


def test_criterion_1_neighborhood_cardinalities():
    started = time.perf_counter()
    expected_distinct = {
        Neighborhood.APEX: 99,
        Neighborhood.BR4: 97,
        Neighborhood.BR5: 96,
        Neighborhood.BR6: 95,
        Neighborhood.EX_NO_APEX: 4851,
        Neighborhood.FSH_NO_APEX: 4851,
        Neighborhood.BSH_NO_APEX: 4851,
    }
    for kind, distinct in expected_distinct.items():
        assert len(enumerate_moves(kind, 100)) == distinct
        assert neighborhood_size(kind, 100) == distinct
    # the ordered-pair exchange count n(n-3)+2 counts each exchange twice
    assert 2 * neighborhood_size(Neighborhood.EX_NO_APEX, 100) \
        == 100 * (100 - 3) + 2 == 9702
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"
    report(1, "neighborhood cardinalities at n=100")


def test_criterion_2_oracle_equivalence_at_desk_scale(desk_runs):
    assert len(desk_runs.runs) >= 200 * 3
    witnessed: dict[int, int] = {}
    for run_index, (instance, config, result) in enumerate(desk_runs.runs):
        optimum = desk_runs.optima[run_index // len(Strategy)]
        assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
        assert certify_local_optimum(
            instance, result.best_sequence, list(Neighborhood)
        ), f"run {run_index}: not locally optimal in all seven neighborhoods"
        assert result.best_objective >= optimum
        if result.best_objective == optimum:
            witnessed[instance.n] = witnessed.get(instance.n, 0) + 1
    for n in range(4, 9):
        assert witnessed.get(n, 0) >= 1, f"no optimum witnessed for n={n}"
    assert desk_runs.elapsed < 300.0, f"took {desk_runs.elapsed:.1f}s"
    report(2, "oracle equivalence over generated instances")


def test_criterion_3_golden_values():
    instance = Instance(processing=(3, 1, 2), weight=(2, 1, 1), due=(2, 4, 3))
    assert objective_value(instance, (1, 2, 0)) == 8
    assert brute_force_optimum(instance) == (5, (0, 1, 2))
    report(3, "hand-checked golden values")


def test_criterion_4_benchmark_ingestion_and_runs(benchmark_runs):
    assert benchmark_runs.instance_count == 125
    for strategy in Strategy:
        result = benchmark_runs.results[strategy.value]
        assert result.evaluations_total <= 10**6
        assert result.terminated_by in (
            Termination.ALL_NEIGHBORHOODS_EXHAUSTED,
            Termination.EVALUATION_BUDGET,
        )
        assert result.trace.points, "trace must not be empty"
        assert_monotone(result.trace.points, strategy.value)
        wall = benchmark_runs.walls[strategy.value]
        assert wall < 120.0, f"{strategy.value} took {wall:.1f}s"
    report(4, "125-instance benchmark ingestion and strategy runs")


def test_criterion_5_determinism_spot_checks(tmp_path):
    instance_file = tmp_path / "instances.txt"
    instance_file.write_text(serialize_orlib(generate_benchmark_set(
        n=6, seed=321, rdd_values=(0.4, 0.8), tf_values=(0.3, 0.7),
        replicates=2,
    )))

    def spec(out_name):
        return ExperimentSpec(
            instance_file=instance_file, n=6, count=8,
            out_dir=tmp_path / out_name, seed=77,
        )

    first = run_experiment(spec("a"))
    second = run_experiment(spec("b"))
    cells = sorted(first.trace_files)
    picks = random.Random(1).sample(cells, 10)
    for key in picks:
        assert first.trace_files[key].read_bytes() == \
            second.trace_files[key].read_bytes(), f"trace differs for {key}"
    assert first.summary_file.read_bytes() == second.summary_file.read_bytes()
    report(5, "byte-identical reruns, 10 spot checks")


def test_criterion_6_crossover_structure(benchmark_runs):
    # No specific switch values are asserted: the run parameters that would
    # pin them are not part of the contract.  The check is structural.
    labels = [s.value for s in Strategy]
    traces = [benchmark_runs.results[label].trace for label in labels]
    result = crossover_report(traces, labels)
    assert set(result) == {
        (a, b) for a in labels for b in labels if a != b
    }
    axes = {label: {e for e, _ in trace.points}
            for label, trace in zip(labels, traces)}
    for (a, b), switch in result.items():
        if switch is not None:
            assert switch in axes[a] | axes[b], \
                f"switch {switch} for ({a},{b}) lies on neither trace axis"
    report(6, "crossover report on benchmark traces")


def test_criterion_7_anytime_monotonicity(desk_runs, benchmark_runs):
    checked = 0
    for _, config, result in desk_runs.runs:
        assert_monotone(result.trace.points,
                        f"desk run ({config.strategy.value})")
        checked += 1
    for label, result in benchmark_runs.results.items():
        assert_monotone(result.trace.points, f"benchmark run ({label})")
        checked += 1
    assert checked >= 603
    report(7, f"anytime monotonicity across {checked} traces")
