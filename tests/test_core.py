import ast
import itertools
import pickle
import random
import re
import sys
from functools import partial
from pathlib import Path

import pytest

import smtwtp_vnd
from smtwtp_vnd import (
    BenchmarkSet,
    DescentRule,
    ExperimentSpec,
    InitialOrder,
    Instance,
    Move,
    Neighborhood,
    RunTrace,
    Strategy,
    StrategyConfig,
    apply_move,
    brute_force_optimum,
    certify_local_optimum,
    enumerate_moves,
    generate_benchmark_set,
    generate_instance,
    load_best_known,
    neighborhood_size,
    objective_value,
    parse_orlib,
)
from smtwtp_vnd.core import EvalCounter
from smtwtp_vnd.engine import descend

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
    ((1, 2), (1, 1), (0,), "field lengths differ: 2 processing times, "
     "2 weights, 1 due dates"),
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
    message = f"{field} values must be int, got {value!r} " \
        f"({type(value).__name__})"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Instance(**data)


def test_instance_is_immutable(tiny_instance):
    with pytest.raises(AttributeError):
        tiny_instance.processing = (1, 1, 1)


def test_trace_records_first_point():
    trace = RunTrace()
    trace.record_if_improved(1, 100)
    assert trace.points == [(1, 100)]


def test_trace_ignores_non_improvement():
    trace = RunTrace(points=[(1, 100)])
    trace.record_if_improved(5, 100)
    assert trace.points == [(1, 100)]


def test_trace_appends_strict_improvement():
    trace = RunTrace(points=[(1, 100)])
    trace.record_if_improved(5, 90)
    assert trace.points == [(1, 100), (5, 90)]


def test_trace_guards_evaluation_monotonicity():
    trace = RunTrace(points=[(5, 100)])
    with pytest.raises(ValueError, match="already has a point"):
        trace.record_if_improved(5, 90)


def test_the_package_imports_only_the_standard_library():
    modules = sorted(Path(smtwtp_vnd.__file__).parent.rglob("*.py"))
    assert "engine.py" in {path.name for path in modules}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside = [name for name in names
                       if name.partition(".")[0] not in sys.stdlib_module_names]
            assert not outside, (path.name, outside)


# --- refusals ---------------------------------------------------------------

EX, APEX = Neighborhood.EX_NO_APEX, Neighborhood.APEX
FIXED, RANDOM = Strategy.FIXED, Strategy.RANDOM
TINY = Instance(processing=(3, 1, 2), weight=(2, 1, 1), due=(2, 4, 3))
T, V = TypeError, ValueError


def spec(**fields):
    return ExperimentSpec(**{"instance_file": Path("in.txt"), "n": 3,
                             "count": 1, "out_dir": Path("out"), **fields})


def indices(*values, count=1):
    return spec(count=count, instance_indices=values)


def strategies(*values):
    return spec(strategies=values)


def config(**fields):
    return StrategyConfig(FIXED, **fields)


# Every size or count follows the one rule: each call passes the value as
# the named size, which must be exactly an `int` (True would run as 1, and
# a float is no count) and at least 1.
COUNTS = {
    ("enumerate_moves", "n"): lambda n: enumerate_moves(EX, n),
    ("neighborhood_size", "n"): lambda n: neighborhood_size(EX, n),
    ("parse_orlib", "n"): lambda n: parse_orlib("1 1 0", n, 1),
    ("parse_orlib", "count"): lambda count: parse_orlib("1 1 0", 1, count),
    ("load_best_known", "count"): lambda count: load_best_known("5", count),
    ("generate_instance", "n"): lambda n: generate_instance(n, 1, 0.5, 0.5),
    ("generate_benchmark_set", "n"): lambda n: generate_benchmark_set(n, 1),
    ("generate_benchmark_set", "replicates"):
        lambda replicates: generate_benchmark_set(3, 1, replicates=replicates),
    ("config", "probe_budget"): lambda budget: config(probe_budget=budget),
    ("config", "max_evaluations"):
        lambda budget: config(max_evaluations=budget),
    ("spec", "n"): lambda n: spec(n=n),
    ("spec", "count"): lambda count: spec(count=count),
    ("spec", "replications"): lambda count: spec(replications=count),
}
BAD_COUNTS = [(True, T, "{} must be int, got True"),
              (1.0, T, "{} must be int, got 1.0"),
              (0, V, "{} must be >= 1, got 0"),
              (-1, V, "{} must be >= 1, got -1")]

# Every other refusal of a bad argument, by function (bad job data and bad
# file contents are pinned beside the instance and file tests): an id, the
# exception type, its whole message and the call's arguments, a trailing
# dict holding the keyword ones.  Types are checked before ranges, as the rows whose
# call breaks both show.
REFUSALS = {
    enumerate_moves: [
        ("nested-str", T, "nested must be bool, got 'off'", EX, 5, "off"),
        ("nested-int-n-0", T, "nested must be bool, got 1", EX, 0, 1),
        ("kind-str", V, "unknown neighborhood kind: 'bogus'", "bogus", 5),
        ("kind-none", V, "unknown neighborhood kind: None", None, 5),
    ],
    neighborhood_size: [
        ("nested-str", T, "nested must be bool, got 'off'", EX, 5, "off"),
        ("n-float-kind-str", T, "n must be int, got 2.5", "ex", 2.5),
        ("kind-str", V, "unknown neighborhood kind: 'bogus'", "bogus", 5),
        ("kind-none", V, "unknown neighborhood kind: None", None, 5),
    ],
    apply_move: [
        ("kind-str", V, "unknown neighborhood kind: 'bogus'",
         (0, 1, 2, 3, 4), Move("bogus", 0, 1)),
        ("kind-none", V, "unknown neighborhood kind: None",
         (0, 1, 2, 3, 4), Move(None, 0, 1)),
        # False would run as position 0, and 0.0 is no index.
        ("i-bool", T, "i must be int, got False",
         (0, 1, 2, 3), Move(EX, False, 2)),
        ("i-float", T, "i must be int, got 0.0",
         (0, 1, 2, 3), Move(EX, 0.0, 2)),
        ("j-float", T, "j must be int, got 2.0",
         (0, 1, 2, 3), Move(APEX, 1, 2.0)),
        ("i-none-kind-str", T, "i must be int, got None",
         (0, 1, 2, 3), Move("bogus", None, 1)),
        ("j-bool-out-of-range", T, "j must be int, got True",
         (0, 1, 2, 3), Move(Neighborhood.BSH_NO_APEX, 5, True)),
    ],
    certify_local_optimum: [
        ("nested-str", T, "nested must be bool, got 'off'",
         TINY, (0, 1, 2), [EX], "off"),
        ("nested-none-short-order", T, "nested must be bool, got None",
         TINY, (0, 0), [EX], None),
        ("short-order", V, "sequence is not a permutation of 0..n-1",
         TINY, (0, 1), [EX], False),
        ("repeated-job", V, "sequence is not a permutation of 0..n-1",
         TINY, (0, 0, 2), [EX]),
        ("bool-job", V, "sequence is not a permutation of 0..n-1",
         TINY, (0, True, 2), [EX]),
        ("float-job", V, "sequence is not a permutation of 0..n-1",
         TINY, (0, 1.0, 2), [EX]),
    ],
    brute_force_optimum: [
        ("n-17", V, "exhaustive search refused for n=17 (limit 16)",
         Instance((1,) * 17, (1,) * 17, (0,) * 17)),
    ],
    parse_orlib: [
        ("n-float-count-0", T, "n must be int, got 1.0", "3 1 2", 1.0, 0),
    ],
    generate_benchmark_set: [
        ("seed-bool", T, "seed must be int, got True", 3, True),
        # Instances 3 and 5 would take seeds -1 and 1, one stream.
        ("seed-negative", V, "seed must be >= 0, got -3", 5, -3),
        ("replicates-float-n-0", T, "replicates must be int, got 1.0",
         0, 1, {"replicates": 1.0}),
        ("n-0-replicates-0", V, "n must be >= 1, got 0",
         0, 1, {"replicates": 0}),
        ("no-rdd", V, "a benchmark set needs at least one instance",
         3, 1, {"rdd_values": ()}),
        ("no-tf", V, "a benchmark set needs at least one instance",
         3, 1, {"tf_values": ()}),
    ],
    BenchmarkSet: [
        ("empty", V, "a benchmark set needs at least one instance", []),
    ],
    generate_instance: [
        ("n-float-rdd-2", T, "n must be int, got 2.0", 2.0, 1, 2, 0.4),
        ("seed-float", T, "seed must be int, got 2.5", 3, 2.5, 0.6, 0.4),
        ("seed-str", T, "seed must be int, got '1'", 3, "1", 0.6, 0.4),
        # `random.Random(-s)` seeds as `Random(s)` does.
        ("seed-negative", V, "seed must be >= 0, got -1", 3, -1, 0.6, 0.4),
        ("seed-negative-7", V, "seed must be >= 0, got -7", 5, -7, 0.5, 0.5),
        ("n-0-rdd-bool", T, "rdd must be int or float, got True",
         0, 1, True, 0.5),
        ("rdd-0", V, "rdd must be in (0, 1]", 3, 1, 0.0, 0.5),
        ("rdd-above-1", V, "rdd must be in (0, 1]", 3, 1, 1.1, 0.5),
        ("tf-negative", V, "tf must be in [0, 1]", 3, 1, 0.5, -0.1),
        ("tf-above-1", V, "tf must be in [0, 1]", 3, 1, 0.5, 1.5),
        # True would run as 1.0, and a string has no range.
        ("rdd-bool", T, "rdd must be int or float, got True",
         3, 1, True, 0.5),
        ("tf-bool", T, "tf must be int or float, got False", 3, 1, 0.5, False),
        ("rdd-str", T, "rdd must be int or float, got '0.5'",
         3, 1, "0.5", 0.5),
        ("tf-none-rdd-0", T, "tf must be int or float, got None",
         3, 1, 0, None),
    ],
    # A setting of another type would run as another setting: "fixed" is
    # not Strategy.FIXED, and "off" is a true flag.
    StrategyConfig: [
        ("strategy-str", T, "strategy must be Strategy, got 'fixed'", "fixed"),
        ("strategy-str-descent_rule-str", T,
         "strategy must be Strategy, got 'fixed'",
         "fixed", {"descent_rule": "best"}),
    ],
    config: [
        ("descent_rule-str", T, "descent_rule must be DescentRule, got "
         "'best'", {"descent_rule": "best"}),
        ("initial-str", T, "initial must be InitialOrder, got 'edd'",
         {"initial": "edd"}),
        ("nested-str", T, "nested must be bool, got 'off'", {"nested": "off"}),
        ("nested-int", T, "nested must be bool, got 1", {"nested": 1}),
        ("seed-bool", T, "seed must be int, got True", {"seed": True}),
        ("seed-str", T, "seed must be int, got '1'", {"seed": "1"}),
        ("seed-negative", V, "seed must be >= 0, got -1", {"seed": -1}),
    ],
    spec: [
        ("seed-negative", V, "seed must be >= 0, got -1", {"seed": -1}),
    ],
    indices: [
        ("bool", T, "instance_indices must be int, got True", True),
        ("float", T, "instance_indices must be int, got 1.0", 1.0),
        ("0", V, "instance indices [0] outside [1, 1]", 0),
        ("past-count", V, "instance indices [2] outside [1, 1]", 2),
        ("none", V, "instance_indices is empty (None selects all)"),
        ("repeated", V, "instance indices [2, 3] repeated",
         3, 2, 1, 2, 3, {"count": 4}),
    ],
    # A repeated strategy has no cell of its own, alone or among others;
    # every entry is checked, so a string neither runs no cell nor drops out.
    strategies: [
        ("none", V, "at least one strategy is required"),
        ("repeated", V, "strategies ['fixed'] repeated", FIXED, FIXED),
        ("repeated-among-others", V, "strategies ['fixed'] repeated",
         FIXED, FIXED, RANDOM),
        ("str", T, "strategy must be Strategy, got 'fixed'", "fixed"),
        ("second-str", T, "strategy must be Strategy, got 'random'",
         FIXED, "random"),
    ],
}


def refusals():
    for (function, name), call in COUNTS.items():
        for value, error, message in BAD_COUNTS:
            yield pytest.param(partial(call, value), error,
                               message.format(name),
                               id=f"{function}-{name}-{value!r}")
    for function, rows in REFUSALS.items():
        for id, error, message, *args in rows:
            kwargs = args.pop() if args and type(args[-1]) is dict else {}
            yield pytest.param(partial(function, *args, **kwargs), error,
                               message, id=f"{function.__name__}-{id}")


@pytest.mark.parametrize("call, error, message", refusals())
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refusal:
        call()
    assert refusal.type is error


# By position, a run setting would bind by its place in the shared base.
@pytest.mark.parametrize("call", [
    partial(StrategyConfig, FIXED, DescentRule.FIRST_IMPROVEMENT),
    partial(ExperimentSpec, Path("in.txt"), 3, 1, Path("out")),
], ids=["StrategyConfig", "ExperimentSpec"])
def test_run_settings_are_keyword_only(call):
    with pytest.raises(TypeError, match="positional argument"):
        call()


# A cell sent to another process travels as an instance and a config.
@pytest.mark.parametrize("value", [
    TINY,
    config(descent_rule=DescentRule.FIRST_IMPROVEMENT, probe_budget=7,
           seed=3, nested=True, max_evaluations=50, initial=InitialOrder.EDD),
    spec(strategies=(FIXED,), replications=2, seed=4, nested=True),
], ids=["Instance", "StrategyConfig", "ExperimentSpec"])
def test_value_survives_pickling(value):
    assert pickle.loads(pickle.dumps(value)) == value


# The accepted edge of each range.
@pytest.mark.parametrize("call", [
    partial(generate_instance, 3, 1, 1.0, 0.0),
    partial(generate_instance, 3, 1, 0.5, 1.0),
    partial(generate_instance, 3, 1, 1, 0),
    partial(brute_force_optimum, Instance((1,) * 16, (1,) * 16, (99,) * 16)),
    partial(indices, 1, 2, count=2),
    partial(descend, TINY, (2, 1, 0), APEX, config(), EvalCounter(),
            RunTrace(), start_objective=8, max_candidates=1),
    partial(certify_local_optimum, TINY, (2, 0, 1), [EX]),
    partial(config, probe_budget=1, max_evaluations=1),
    partial(parse_orlib, "3 1 2", 1, 1),
    partial(load_best_known, "0", 1),
    partial(enumerate_moves, EX, 1),
], ids=["tf-0", "tf-1", "int-rdd-tf", "brute-force-n-16", "indices-1-2-of-2",
        "cap-1", "certify-permutation", "budget-1", "parse-n-1-count-1",
        "best-known-count-1", "moves-n-1"])
def test_accepted_edge(call):
    call()
