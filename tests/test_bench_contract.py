"""The benchmark's coupling to the package, checked at tier 1.

`bench/tracing.py` wraps package functions by the names their callers look
them up by, and `bench/checks.py` builds its self-test cells through the
engine.  A refactor that renames or bypasses one of those names would
otherwise break only the benchmark.  Both files are loaded by path and not
edited.
"""

import importlib.util
from pathlib import Path

import smtwtp_vnd
from smtwtp_vnd import (
    ExperimentSpec,
    generate_benchmark_set,
    run_experiment,
    serialize_orlib,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checks_self_test_passes():
    assert load("checks").self_test(smtwtp_vnd) == []


def test_tracer_counts_every_evaluation(tmp_path):
    benchmark = generate_benchmark_set(n=8, seed=1, replicates=1)
    instances = tmp_path / "instances.txt"
    instances.write_text(serialize_orlib(benchmark))
    spec = ExperimentSpec(instance_file=instances, n=8,
                          count=len(benchmark.instances),
                          out_dir=tmp_path / "out")
    with load("tracing").Tracer(smtwtp_vnd) as tracer:
        output = run_experiment(spec)
    metrics = tracer.metrics()
    evaluations = sum(r.evaluations_total for r in output.results.values())
    assert metrics["core.EvalCounter.tick.calls"][0] == evaluations
    assert metrics["engine.run.calls"][0] == len(output.results)
    assert metrics["harness.write_trace_csv.calls"][0] == len(output.results)
    assert metrics["harness.crossover_report.calls"][0] == spec.count
