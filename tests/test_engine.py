import itertools
import random

import pytest

from smtwtp_vnd import (
    CANONICAL_ORDER,
    EvalCounter,
    DescentRule,
    InitialOrder,
    Instance,
    Neighborhood,
    RunTrace,
    Strategy,
    StrategyConfig,
    Termination,
    brute_force_optimum,
    certify_local_optimum,
    descend,
    generate_benchmark_set,
    neighborhood_size,
    objective_value,
    run,
)
from smtwtp_vnd import engine
from smtwtp_vnd.engine import initial_sequence

from .conftest import random_instance

FIXED_CFG = StrategyConfig(strategy=Strategy.FIXED)


def assert_valid_trace(trace: RunTrace):
    evals = [e for e, _ in trace.points]
    bests = [b for _, b in trace.points]
    assert all(a < b for a, b in zip(evals, evals[1:])), \
        "evaluations must strictly increase"
    assert all(a >= b for a, b in zip(bests, bests[1:])), \
        "best objective must never worsen"


def test_descend_reaches_exchange_local_optimum(tiny_instance):
    counter, trace = EvalCounter(), RunTrace()
    res = descend(
        tiny_instance, (2, 1, 0), Neighborhood.EX_NO_APEX, FIXED_CFG,
        counter, trace,
        start_objective=objective_value(tiny_instance, (2, 1, 0)),
    )
    assert res.sequence == (0, 1, 2)
    assert res.objective == 5


def test_descend_on_local_optimum_scans_whole_neighborhood(tiny_instance):
    # Best-improvement proves local optimality by evaluating every move once.
    for kind in Neighborhood:
        counter, trace = EvalCounter(), RunTrace()
        res = descend(tiny_instance, (0, 1, 2), kind, FIXED_CFG, counter, trace,
                      start_objective=objective_value(tiny_instance, (0, 1, 2)))
        assert res.sequence == (0, 1, 2)
        assert counter.count == neighborhood_size(kind, 3)
        assert res.evaluations == counter.count


def test_descend_empty_neighborhood_is_a_no_op():
    inst = Instance(
        processing=(4, 3, 2, 1, 5), weight=(1, 2, 3, 4, 5),
        due=(0, 0, 0, 0, 0),
    )
    counter, trace = EvalCounter(), RunTrace()
    res = descend(inst, (4, 3, 2, 1, 0), Neighborhood.BR6, FIXED_CFG,
                  counter, trace,
                  start_objective=objective_value(inst, (4, 3, 2, 1, 0)))
    assert res.sequence == (4, 3, 2, 1, 0)
    assert counter.count == 0
    assert res.evaluations == 0


@pytest.mark.parametrize("rule", list(DescentRule))
def test_descend_result_is_local_optimum_for_its_kind(rule):
    rng = random.Random(555)
    config = StrategyConfig(strategy=Strategy.FIXED, descent_rule=rule)
    for _ in range(25):
        n = rng.randint(2, 8)
        inst = random_instance(rng, n)
        start = tuple(rng.sample(range(n), n))
        kind = rng.choice(list(Neighborhood))
        counter, trace = EvalCounter(), RunTrace()
        res = descend(inst, start, kind, config, counter, trace,
                      start_objective=objective_value(inst, start))
        assert res.objective <= objective_value(inst, start)
        assert res.objective == objective_value(inst, res.sequence)
        assert certify_local_optimum(inst, res.sequence, [kind])


def test_fixed_solves_tiny_instance(tiny_instance):
    result = run(tiny_instance, FIXED_CFG)
    assert result.best_objective == 5
    assert result.best_sequence == (0, 1, 2)
    assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
    assert result.trace.points[-1][1] == 5


def test_single_job_instance_has_no_moves():
    inst = Instance(processing=(9,), weight=(4,), due=(1,))
    for strategy in Strategy:
        result = run(inst, StrategyConfig(strategy=strategy))
        assert result.best_sequence == (0,)
        assert result.best_objective == 4 * 8
        assert result.evaluations_total == 1
        assert result.trace.points == [(1, 32)]
        assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED


def test_identical_seeds_give_identical_runs():
    rng = random.Random(13)
    inst = random_instance(rng, 9)
    config = StrategyConfig(
        strategy=Strategy.RANDOM, seed=90125, initial=InitialOrder.RANDOM
    )
    assert run(inst, config) == run(inst, config)


def test_run_dispatches_by_strategy(tiny_instance):
    for strategy in Strategy:
        result = run(tiny_instance, StrategyConfig(strategy=strategy))
        assert result.best_objective == 5


def test_strategy_decides_neighborhood_order(tiny_instance, monkeypatch):
    # From the global optimum no descent improves, so each strategy's
    # selection rule shows directly in the order of its descents.
    calls = []
    original = engine.descend

    def recording_descend(*args, **kwargs):
        calls.append((args[2], kwargs.get("max_candidates")))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "descend", recording_descend)
    canonical = list(CANONICAL_ORDER)

    run(tiny_instance, StrategyConfig(strategy=Strategy.FIXED))
    assert calls == [(kind, None) for kind in canonical]

    calls.clear()
    run(tiny_instance, StrategyConfig(strategy=Strategy.RANDOM, seed=8))
    rng, remaining, drawn = random.Random(8), list(canonical), []
    while remaining:
        drawn.append(remaining.pop(rng.randrange(len(remaining))))
    assert calls == [(kind, None) for kind in drawn]

    calls.clear()
    run(tiny_instance, StrategyConfig(strategy=Strategy.ADAPTIVE,
                                      probe_budget=4))
    assert calls == [(kind, 4) for kind in canonical]

    # A probe of one candidate cannot see APEX's two moves, so after seven
    # failed probes adaptive descends in APEX in full before it may stop.
    calls.clear()
    run(tiny_instance, StrategyConfig(strategy=Strategy.ADAPTIVE,
                                      probe_budget=1))
    assert calls == [(kind, 1) for kind in canonical] + [
        (Neighborhood.APEX, None)]


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(strategy=Strategy.FIXED, probe_budget=0)
    with pytest.raises(ValueError):
        StrategyConfig(strategy=Strategy.FIXED, max_evaluations=0)
    # Settings of the wrong type would otherwise run as another setting:
    # "fixed" is not Strategy.FIXED and "off" is truthy.
    with pytest.raises(TypeError, match="strategy must be Strategy"):
        StrategyConfig("fixed")
    for field, value in [
        ("descent_rule", "best"), ("initial", "edd"), ("nested", "off"),
        ("nested", 1), ("probe_budget", True), ("probe_budget", 1.0),
        ("seed", True), ("seed", "1"), ("max_evaluations", True),
        ("max_evaluations", 5.0),
    ]:
        with pytest.raises(TypeError, match=field):
            StrategyConfig(strategy=Strategy.FIXED, **{field: value})


def test_initial_sequence_constructions():
    inst = Instance(
        processing=(2, 2, 2, 2), weight=(1, 1, 1, 1), due=(9, 3, 9, 1)
    )
    rng = random.Random(5)
    as_given = initial_sequence(
        inst, StrategyConfig(strategy=Strategy.FIXED), rng
    )
    assert as_given == (0, 1, 2, 3)
    edd = initial_sequence(
        inst,
        StrategyConfig(strategy=Strategy.FIXED, initial=InitialOrder.EDD),
        rng,
    )
    assert edd == (3, 1, 0, 2)  # due dates 1, 3, then ties 9/9 by index
    shuffled = initial_sequence(
        inst,
        StrategyConfig(strategy=Strategy.FIXED, initial=InitialOrder.RANDOM,
                       seed=6),
        random.Random(6),
    )
    assert sorted(shuffled) == [0, 1, 2, 3]
    again = initial_sequence(
        inst,
        StrategyConfig(strategy=Strategy.FIXED, initial=InitialOrder.RANDOM,
                       seed=6),
        random.Random(6),
    )
    assert shuffled == again


def test_random_strategy_on_global_optimum_stops_after_one_sweep(tiny_instance):
    # (0,1,2) is the global optimum: every neighborhood gets ruled out once,
    # best-improvement charges exactly the neighborhood size for each.
    config = StrategyConfig(strategy=Strategy.RANDOM, seed=3)
    result = run(tiny_instance, config)
    expected = 1 + sum(neighborhood_size(kind, 3) for kind in Neighborhood)
    assert result.evaluations_total == expected
    assert result.trace.points == [(1, 5)]
    assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED


def test_adaptive_probe_costs_on_global_optimum(tiny_instance):
    # All seven probes fail, each charging min(probe_budget, size).
    config = StrategyConfig(strategy=Strategy.ADAPTIVE, probe_budget=100)
    result = run(tiny_instance, config)
    probe_cost = sum(
        min(100, neighborhood_size(kind, 3)) for kind in Neighborhood
    )
    assert result.evaluations_total == 1 + probe_cost
    assert result.evaluations_total >= probe_cost
    assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED


def test_adaptive_matches_reference_orchestration():
    # Reference re-implementation of the probe/select/descend loop, built on
    # the same descend primitive, to pin the orchestration semantics.
    def reference_adaptive(inst, config):
        counter, trace = EvalCounter(), RunTrace()
        current = tuple(range(inst.n))
        current_obj = objective_value(inst, current)
        counter.tick()
        trace.record_if_improved(counter, current_obj)
        while True:
            probes = []
            for kind in CANONICAL_ORDER:
                res = descend(inst, current, kind, config, counter, trace,
                              start_objective=current_obj,
                              max_candidates=config.probe_budget)
                probes.append((kind, res))
            best_kind, best_res = min(
                probes, key=lambda kr: (kr[1].objective,
                                        list(CANONICAL_ORDER).index(kr[0]))
            )
            if best_res.objective < current_obj:
                res = descend(inst, best_res.sequence, best_kind, config,
                              counter, trace,
                              start_objective=best_res.objective)
                current, current_obj = res.sequence, res.objective
                continue
            # No probe improved: prove the neighborhoods no probe saw whole,
            # in canonical order, and probe again after an improvement.
            for kind in CANONICAL_ORDER:
                if neighborhood_size(kind, inst.n) <= config.probe_budget:
                    continue
                res = descend(inst, current, kind, config, counter, trace,
                              start_objective=current_obj)
                if res.objective < current_obj:
                    current, current_obj = res.sequence, res.objective
                    break
            else:
                return current_obj, counter.count, trace.points

    rng = random.Random(2025)
    for probe_budget in (3, 10, 100):
        config = StrategyConfig(
            strategy=Strategy.ADAPTIVE, probe_budget=probe_budget
        )
        for _ in range(10):
            inst = random_instance(rng, rng.randint(3, 7))
            expected_obj, expected_evals, expected_points = \
                reference_adaptive(inst, config)
            result = run(inst, config)
            assert result.best_objective == expected_obj
            assert result.evaluations_total == expected_evals
            assert result.trace.points == expected_points


def test_fixed_matches_classical_vnd():
    # Classical VND written as nested loops: walk the neighborhoods in
    # canonical order and start over from the first after any improvement.
    def reference_fixed(inst, config):
        counter, trace = EvalCounter(), RunTrace()
        current = tuple(range(inst.n))
        current_obj = objective_value(inst, current)
        counter.tick()
        trace.record_if_improved(counter, current_obj)
        improved = True
        while improved:
            for kind in CANONICAL_ORDER:
                res = descend(inst, current, kind, config, counter, trace,
                              start_objective=current_obj)
                improved = res.objective < current_obj
                current, current_obj = res.sequence, res.objective
                if improved:
                    break
        return current, counter.count, trace.points

    rng = random.Random(2026)
    for rule in DescentRule:
        config = StrategyConfig(strategy=Strategy.FIXED, descent_rule=rule)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(3, 9))
            result = run(inst, config)
            assert (result.best_sequence, result.evaluations_total,
                    result.trace.points) == reference_fixed(inst, config)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("rule", list(DescentRule))
def test_exhausted_runs_are_locally_optimal_everywhere(strategy, rule):
    rng = random.Random(f"{strategy.value}:{rule.value}")
    for trial in range(18):
        n = rng.randint(2, 10)
        inst = random_instance(rng, n)
        config = StrategyConfig(
            strategy=strategy, descent_rule=rule, seed=trial,
            initial=InitialOrder.RANDOM,
        )
        result = run(inst, config)
        assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
        assert certify_local_optimum(
            inst, result.best_sequence, list(Neighborhood)
        )
        if n <= 8:  # exhaustive comparison stays cheap
            best, _ = brute_force_optimum(inst)
            assert result.best_objective >= best
        assert result.best_objective == objective_value(
            inst, result.best_sequence
        )
        assert_valid_trace(result.trace)


def test_every_strategy_stops_only_at_a_local_optimum():
    # Without a budget every run ends exhausted, and that must mean every
    # neighborhood was scanned whole at the final incumbent: the sequence
    # is certified, and the run spent at least one scan of each.
    settings = [(Strategy.FIXED, 100), (Strategy.RANDOM, 100),
                (Strategy.ADAPTIVE, 1), (Strategy.ADAPTIVE, 100)]
    for n, index in [(12, 41), (20, 81)]:
        inst = generate_benchmark_set(n=n, seed=7).instances[index - 1]
        for (strategy, probe_budget), rule, nested in itertools.product(
            settings, DescentRule, (False, True)
        ):
            result = run(inst, StrategyConfig(
                strategy=strategy, descent_rule=rule, nested=nested,
                probe_budget=probe_budget, seed=n))
            assert result.terminated_by is \
                Termination.ALL_NEIGHBORHOODS_EXHAUSTED
            assert certify_local_optimum(
                inst, result.best_sequence, list(Neighborhood), nested)
            assert result.evaluations_total >= 1 + sum(
                neighborhood_size(kind, n, nested) for kind in Neighborhood)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_budget_termination_is_exact(strategy):
    rng = random.Random(17)
    inst = random_instance(rng, 12)
    natural = run(inst, StrategyConfig(strategy=strategy, seed=1))
    assert natural.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
    for budget in (1, 2, 5, natural.evaluations_total - 1):
        config = StrategyConfig(
            strategy=strategy, seed=1, max_evaluations=budget
        )
        result = run(inst, config)
        assert result.terminated_by is Termination.EVALUATION_BUDGET
        assert result.evaluations_total == budget
        assert result.trace.points[-1][1] == result.best_objective
        assert_valid_trace(result.trace)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_budget_larger_than_needed_does_not_trigger(strategy):
    rng = random.Random(18)
    inst = random_instance(rng, 8)
    natural = run(inst, StrategyConfig(strategy=strategy, seed=2))
    capped = run(inst, StrategyConfig(
        strategy=strategy, seed=2,
        max_evaluations=natural.evaluations_total + 1,
    ))
    assert capped == natural


def test_budget_stop_keeps_best_candidate_seen():
    # Interrupting a best-improvement scan must not lose an improving
    # candidate that was already evaluated.
    rng = random.Random(19)
    for trial in range(20):
        inst = random_instance(rng, 10)
        config = StrategyConfig(
            strategy=Strategy.FIXED, max_evaluations=rng.randint(2, 40),
            seed=trial,
        )
        result = run(inst, config)
        assert result.best_objective == result.trace.points[-1][1]
        assert result.best_objective == objective_value(
            inst, result.best_sequence
        )


def test_first_improvement_uses_fewer_evaluations_per_step(tiny_instance):
    # From (2,1,0), EX's only move already improves; both rules find it.
    for rule in DescentRule:
        counter, trace = EvalCounter(), RunTrace()
        config = StrategyConfig(strategy=Strategy.FIXED, descent_rule=rule)
        res = descend(tiny_instance, (2, 1, 0), Neighborhood.EX_NO_APEX,
                      config, counter, trace,
                      start_objective=objective_value(tiny_instance, (2, 1, 0)))
        assert res.objective == 5


def test_nested_runs_terminate_and_certify_nested_optimality():
    rng = random.Random(23)
    for strategy in Strategy:
        inst = random_instance(rng, 7)
        config = StrategyConfig(strategy=strategy, nested=True, seed=4)
        result = run(inst, config)
        assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
        assert certify_local_optimum(
            inst, result.best_sequence, list(Neighborhood), nested=True
        )


def test_descend_probe_cap_limits_candidate_evaluations(tiny_instance):
    counter, trace = EvalCounter(), RunTrace()
    res = descend(
        tiny_instance, (2, 1, 0), Neighborhood.APEX, FIXED_CFG,
        counter, trace,
        start_objective=objective_value(tiny_instance, (2, 1, 0)),
        max_candidates=1,
    )
    assert res.evaluations == 1
    assert counter.count == 1
    assert not res.budget_hit


def test_descend_stop_precedence():
    # A descent stops at the probe cap or the budget, whichever comes
    # first; `budget_hit` says the budget stopped a scan, and the cap wins
    # a tie.  EX at n = 6 has 10 moves, so no descent ends within 3.
    inst = random_instance(random.Random(41), 6)
    start = (5, 4, 3, 2, 1, 0)
    for budget, evaluations, budget_hit in [(8, 3, False), (7, 2, True)]:
        config = StrategyConfig(strategy=Strategy.FIXED,
                                max_evaluations=budget)
        res = descend(inst, start, Neighborhood.EX_NO_APEX, config,
                      EvalCounter(count=5), RunTrace(),
                      start_objective=objective_value(inst, start),
                      max_candidates=3)
        assert (res.evaluations, res.budget_hit) == (evaluations, budget_hit)

    # From a local optimum a best-improvement descent is one whole scan.
    # Ending on the budget's last evaluation is not a stop; one fewer is.
    kind = Neighborhood.FSH_NO_APEX
    optimum = descend(inst, start, kind, FIXED_CFG, EvalCounter(), RunTrace(),
                      start_objective=objective_value(inst, start)).sequence
    size = neighborhood_size(kind, 6)
    for budget, budget_hit in [(5 + size, False), (4 + size, True)]:
        config = StrategyConfig(strategy=Strategy.FIXED,
                                max_evaluations=budget)
        res = descend(inst, optimum, kind, config, EvalCounter(count=5),
                      RunTrace(),
                      start_objective=objective_value(inst, optimum))
        assert (res.evaluations, res.budget_hit) == (budget - 5, budget_hit)


def test_trace_is_running_minimum_of_all_evaluations(monkeypatch):
    # Every objective the run determines is logged; the trace must hold
    # exactly the strict running minima of that log, each at its 1-based
    # position, and the log must be as long as the evaluation total.
    log = []
    original = engine.objective_value

    def logging_objective(instance, order):
        value = original(instance, order)
        log.append(value)
        return value

    monkeypatch.setattr(engine, "objective_value", logging_objective)
    rng = random.Random(31)
    settings = [(Strategy.RANDOM, 100), (Strategy.FIXED, 100),
                (Strategy.ADAPTIVE, 1), (Strategy.ADAPTIVE, 100)]
    runs = 0
    for n in (2, 3, 5, 8, 12, 20):
        inst = random_instance(rng, n)
        for (strategy, probe_budget), rule, nested, budget in itertools.product(
            settings, DescentRule, (False, True), (None, 37)
        ):
            log.clear()
            result = run(inst, StrategyConfig(
                strategy=strategy, descent_rule=rule, probe_budget=probe_budget,
                seed=runs, nested=nested, max_evaluations=budget,
                initial=InitialOrder.RANDOM,
            ))
            assert len(log) == result.evaluations_total
            minima = []
            for position, value in enumerate(log, start=1):
                if not minima or value < minima[-1][1]:
                    minima.append((position, value))
            assert result.trace.points == minima
            runs += 1
    assert runs == 192
