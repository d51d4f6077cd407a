import itertools
import random

import pytest

from smtwtp_vnd import (
    EvalCounter,
    Instance,
    RunTrace,
    is_permutation,
    objective_value,
)

from .conftest import ref_objective, random_instance


def test_objective_single_job():
    inst = Instance(processing=(5,), weight=(2,), due=(3,))
    assert objective_value(inst, (0,)) == 4


def test_objective_three_jobs(tiny_instance):
    # Completion times 6, 1, 3 for jobs 0, 1, 2: only job 0 is late, by 4.
    assert objective_value(tiny_instance, (1, 2, 0)) == 8


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
