import itertools
import random

import pytest

from smtwtp_vnd import (
    EvalCounter,
    Instance,
    Neighborhood,
    RunTrace,
    certify_local_optimum,
    enumerate_moves,
    generate_benchmark_set,
    generate_instance,
    is_permutation,
    load_best_known,
    neighborhood_size,
    objective_value,
    parse_orlib,
)

from .conftest import ref_objective, random_instance


def test_objective_single_job():
    inst = Instance(processing=(5,), weight=(2,), due=(3,))
    assert objective_value(inst, (0,)) == 4


def test_objective_identity_order_is_brute_force_optimum(tiny_instance):
    # Exhaustive check: 5 is attained at (0,1,2) and no permutation beats it.
    values = {
        perm: ref_objective(tiny_instance, perm)
        for perm in itertools.permutations(range(3))
    }
    assert min(values.values()) == 5
    assert values[(0, 1, 2)] == 5
    assert objective_value(tiny_instance, (0, 1, 2)) == 5


def test_counter_counts_every_tick():
    counter = EvalCounter()
    for k in range(1, 26):
        counter.tick()
        assert counter.count == k


def test_objective_matches_independent_recompute():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randint(1, 12)
        inst = random_instance(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        order = tuple(order)
        assert objective_value(inst, order) == ref_objective(inst, order)


@pytest.mark.parametrize("processing,weight,due,message", [
    ((), (), (), "at least one job"),
    ((1, 2), (1,), (0, 0), "lengths differ"),
    ((0, 2), (1, 1), (0, 0), "processing times"),
    ((1, 2), (0, 1), (0, 0), "weights"),
    ((1, 2), (1, 1), (-1, 0), "due dates"),
])
def test_instance_invariants(processing, weight, due, message):
    with pytest.raises(ValueError, match=message):
        Instance(processing=processing, weight=weight, due=due)


@pytest.mark.parametrize("field,value", [
    ("processing", 1.5),
    ("weight", True),
    ("due", "3"),
])
def test_instance_rejects_non_int_job_data(field, value):
    data = dict(processing=[2, 3], weight=[1, 1], due=[0, 4])
    data[field][0] = value
    with pytest.raises(TypeError, match=f"{field} values must be int"):
        Instance(**data)


def test_instance_is_immutable(tiny_instance):
    with pytest.raises(AttributeError):
        tiny_instance.processing = (1, 1, 1)


def test_is_permutation():
    assert is_permutation((2, 0, 1), 3)
    assert not is_permutation((0, 1), 3)
    assert not is_permutation((0, 0, 2), 3)


EX = Neighborhood.EX_NO_APEX


# A size or flag of another type would run as another setting: True counts
# as 1, 2.5 as a size and "off" as a true flag.  Each is refused by name
# before any other check: most functions' last case also breaks another.
@pytest.mark.parametrize("function, arguments, name", [
    (enumerate_moves, dict(kind=EX, n=5, nested="off"), "nested"),
    (enumerate_moves, dict(kind=EX, n=True), "n"),
    (enumerate_moves, dict(kind=EX, n=0, nested=1), "nested"),
    (neighborhood_size, dict(kind=EX, n=5, nested="off"), "nested"),
    (neighborhood_size, dict(kind=EX, n=2.5), "n"),
    (neighborhood_size, dict(kind="ex", n=2.5), "n"),
    (certify_local_optimum, dict(
        instance=generate_instance(6, 3, 0.6, 0.4), order=(0, 3, 5, 1, 4, 2),
        kinds=[EX], nested="off"), "nested"),
    (certify_local_optimum, dict(
        instance=generate_instance(6, 3, 0.6, 0.4), order=(0, 0),
        kinds=[EX], nested=None), "nested"),
    (parse_orlib, dict(text="3 1 2", n=True, count=1), "n"),
    (parse_orlib, dict(text="3 1 2", n=1, count=1.0), "count"),
    (parse_orlib, dict(text="3 1 2", n=1.0, count=0), "n"),
    (load_best_known, dict(text="5", count=True), "count"),
    (load_best_known, dict(text="5 6", count=1.0), "count"),
    (generate_benchmark_set, dict(n=3, seed=1, replicates=True), "replicates"),
    (generate_benchmark_set, dict(n=0, seed=1, replicates=1.0), "replicates"),
    (generate_benchmark_set, dict(n=3, seed=True), "seed"),
    (generate_instance, dict(n=True, seed=1, rdd=0.6, tf=0.4), "n"),
    (generate_instance, dict(n=2.0, seed=1, rdd=2, tf=0.4), "n"),
    (generate_instance, dict(n=3, seed=2.5, rdd=0.6, tf=0.4), "seed"),
    (generate_instance, dict(n=3, seed="1", rdd=0.6, tf=0.4), "seed"),
    (is_permutation, dict(order=(0,), n=True), "n"),
])
def test_sizes_and_flags_must_have_their_exact_type(function, arguments, name):
    with pytest.raises(TypeError, match=f"^{name} must be "):
        function(**arguments)


def test_trace_records_first_point():
    trace = RunTrace()
    counter = EvalCounter(count=1)
    trace.record_if_improved(counter, 100)
    assert trace.points == [(1, 100)]


def test_trace_ignores_non_improvement():
    trace = RunTrace(points=[(1, 100)])
    trace.record_if_improved(EvalCounter(count=5), 100)
    assert trace.points == [(1, 100)]


def test_trace_appends_strict_improvement():
    trace = RunTrace(points=[(1, 100)])
    trace.record_if_improved(EvalCounter(count=5), 90)
    assert trace.points == [(1, 100), (5, 90)]


def test_trace_guards_evaluation_monotonicity():
    trace = RunTrace(points=[(5, 100)])
    with pytest.raises(ValueError, match="already has a point"):
        trace.record_if_improved(EvalCounter(count=5), 90)
