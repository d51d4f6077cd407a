import functools
import itertools
import random
import sys
from dataclasses import replace

import pytest

from smtwtp_vnd import (
    CANONICAL_ORDER,
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
    generate_benchmark_set,
    generate_instance,
    neighborhood_size,
    objective_value,
    run,
)
from smtwtp_vnd import engine
from smtwtp_vnd.core import EvalCounter
from smtwtp_vnd.engine import descend, initial_sequence
from smtwtp_vnd.oracle import MAX_EXACT_N

from . import reference_engine, sweep
from .conftest import random_instance, rejection_randint

FIXED_CFG = StrategyConfig(strategy=Strategy.FIXED)
# Python versions whose `randrange` and `shuffle` draw as the engine does.
STDLIB_DRAWS = (3, 10) <= sys.version_info[:2] <= (3, 13)


def assert_valid_trace(trace: RunTrace):
    evals = [e for e, _ in trace.points]
    bests = [b for _, b in trace.points]
    assert all(a < b for a, b in zip(evals, evals[1:])), \
        "evaluations must strictly increase"
    assert all(a >= b for a, b in zip(bests, bests[1:])), \
        "best objective must never worsen"


@pytest.mark.parametrize("rule", list(DescentRule))
def test_either_rule_descends_from_the_worst_order_to_the_optimum(
        tiny_instance, rule):
    # From (2,1,0), of objective 8, EX's only move reaches the optimum 5.
    res = descend(tiny_instance, (2, 1, 0), Neighborhood.EX_NO_APEX,
                  StrategyConfig(Strategy.FIXED, descent_rule=rule),
                  EvalCounter(), RunTrace(), start_objective=8)
    assert (res.sequence, res.objective) == ((0, 1, 2), 5)


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


def test_the_random_pick_draws_by_the_rejection_loop(tiny_instance,
                                                     monkeypatch):
    # From the global optimum no descent improves, so a random run picks
    # once from each of 7, 6, ..., 1 eligible neighborhoods.
    calls = []
    original = engine.descend

    def recording_descend(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "descend", recording_descend)
    rejected = []
    for seed in range(50):
        calls.clear()
        run(tiny_instance, StrategyConfig(strategy=Strategy.RANDOM, seed=seed))
        rng, remaining, drawn = random.Random(seed), list(CANONICAL_ORDER), []
        stdlib, left = random.Random(seed), list(CANONICAL_ORDER)
        while remaining:
            drawn.append(remaining.pop(
                rejection_randint(rng, 0, len(remaining) - 1, rejected)))
            if STDLIB_DRAWS:
                assert drawn[-1] == left.pop(stdlib.randrange(len(left)))
        assert calls == drawn
    assert rejected


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30, 100])
def test_a_random_initial_order_draws_as_fisher_yates(n):
    # `shuffle`'s order: i from n - 1 down to 1, each swapped with a j drawn
    # below i + 1; the same generator calls, so the same state after.
    inst = Instance((1,) * n, (1,) * n, (0,) * n)
    config = StrategyConfig(Strategy.FIXED, initial=InitialOrder.RANDOM)
    rejected = []
    for seed in range(50):
        rng, reference = random.Random(seed), random.Random(seed)
        order = list(range(n))
        for i in reversed(range(1, n)):
            j = rejection_randint(reference, 0, i, rejected)
            order[i], order[j] = order[j], order[i]
        assert initial_sequence(inst, config, rng) == tuple(order)
        assert rng.getstate() == reference.getstate()
        if STDLIB_DRAWS:
            shuffled = list(range(n))
            random.Random(seed).shuffle(shuffled)
            assert shuffled == order
    assert bool(rejected) == (n > 1)


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
        trace.record_if_improved(counter.count, current_obj)
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
        trace.record_if_improved(counter.count, current_obj)
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


@pytest.mark.parametrize("change, scans, objective", [(-1, 6, -1), (0, 1, 5)])
def test_a_phantom_improvement_fails_fast(tiny_instance, change, scans,
                                          objective, monkeypatch):
    # A faulty scan that keeps reporting an improvement would make the
    # descent accept forever, one trace point per accept.  Every true
    # accept lowers the objective by at least 1 and none is below 0, so
    # from the optimum of `tiny_instance` (objective 5) the descent raises
    # on its sixth accept of -1, or on its first of 0.
    scanned = 0

    def phantom(kind, nested, tables, limit, change_, lo, hi, tick):
        nonlocal scanned
        scanned += 1
        tick()
        yield 0, 1, change

    monkeypatch.setattr(engine, "_scan", phantom)
    start = (0, 1, 2)
    start_objective = objective_value(tiny_instance, start)
    trace = RunTrace()
    with pytest.raises(RuntimeError, match=f"APEX scan reported change "
                       f"{change}, taking the objective to {objective}$"):
        descend(tiny_instance, start, Neighborhood.APEX, FIXED_CFG,
                EvalCounter(), trace, start_objective=start_objective)
    assert scanned == scans <= start_objective + 1
    assert len(trace.points) <= start_objective + 1


def test_a_kept_descent_replays_at_every_stop(monkeypatch):
    # A descent from a kept start scores no scan while its kept scans last,
    # and under every cap it equals a descent that scores every scan.  No
    # descent scores a scan once the cap leaves it no move, not even after
    # a stopped scan that accepted its best.
    inst = generate_instance(8, 3, 0.6, 0.2)
    start = (7, 6, 5, 4, 3, 2, 1, 0)
    kind, scans = Neighborhood.EX_NO_APEX, {}
    original, started = engine._scan, []

    def descent(max_candidates=None, scans=None):
        nonlocal counter
        counter, trace = EvalCounter(count=3), RunTrace()
        res = descend(inst, start, kind, FIXED_CFG, counter, trace,
                      start_objective=objective_value(inst, start),
                      max_candidates=max_candidates, scans=scans)
        return res, counter.count, trace.points

    def scored(*args):
        started.append(counter.count)
        return original(*args)

    counter = None
    kept = descent(scans=scans)
    assert len(kept[2]) > 2    # several accepts, so several kept scans
    monkeypatch.setattr(engine, "_scan", None)
    assert descent(scans=scans) == kept
    monkeypatch.setattr(engine, "_scan", scored)
    accepted_at_the_stop = 0
    for cap in range(1, kept[0].evaluations + 2):
        started.clear()
        fresh = descent(cap)
        # A point after the last scan started: that scan accepted a move,
        # so only the cap ended the descent.
        last_point = fresh[2][-1][0] if fresh[2] else 0
        accepted_at_the_stop += last_point > started[-1]
        assert descent(cap, scans) == fresh, cap
        assert max(started) < 3 + cap, cap
    assert accepted_at_the_stop > 0   # 16 of the caps


def test_runs_sharing_their_instances_scans_equal_runs_alone(monkeypatch):
    # The sweep's runs, each alone and again with one `scans` dict shared by
    # all the runs of its instance, in a shuffled order.
    original, scored = engine._scan, [0, 0]

    def counted(*args):
        scored[shared] += 1
        return original(*args)

    monkeypatch.setattr(engine, "_scan", counted)
    rng = random.Random(35)
    for n, (offset, rdd, tf) in itertools.product(sweep.SIZES,
                                                  sweep.INSTANCES):
        inst, scans = generate_instance(n, n + offset, rdd, tf), {}
        configs = [StrategyConfig(s, descent_rule=rule, probe_budget=probe,
                                  seed=n, nested=nested, initial=initial,
                                  max_evaluations=budget)
                   for s, rule, nested, initial, budget, probe in
                   itertools.product(Strategy, DescentRule, (False, True),
                                     InitialOrder, sweep.BUDGETS,
                                     sweep.PROBE_BUDGETS)]
        rng.shuffle(configs)
        for config in configs:
            shared = False
            alone = run(inst, config)
            shared = True
            assert run(inst, config, scans) == alone, config
    assert scored[True] < 0.7 * scored[False]


def test_a_scans_dict_belongs_to_one_instance(tiny_instance):
    # Kept by identity: an equal instance is another instance.
    scans = {}
    for seed in (0, 1):
        run(tiny_instance, replace(FIXED_CFG, seed=seed), scans)
    twin = Instance(tiny_instance.processing, tiny_instance.weight,
                    tiny_instance.due)
    with pytest.raises(ValueError, match="scans of another instance"):
        run(twin, FIXED_CFG, scans)
    assert run(twin, FIXED_CFG) == run(tiny_instance, FIXED_CFG, scans)


# --- the run grid: each run-level property, on every run it applies to -----


def run_grid():
    """`(instance, config, budget, reference budget)` for a seeded sample of
    n = 1-30 x strategy x rule x nesting x initial order x probe budget, and
    each strategy x rule x nesting on generated instances of 12 and 20 jobs."""
    rng, seeds = random.Random(12), itertools.count()
    sample = list(itertools.product(Strategy, DescentRule, (False, True),
                                    InitialOrder, (1, 100)))
    grid = [(inst, StrategyConfig(s, descent_rule=rule, probe_budget=probe,
                                  seed=next(seeds), nested=nested,
                                  initial=initial))
            for n in range(1, 31) for inst in [random_instance(rng, n)]
            for s, rule, nested, initial, probe in rng.sample(
                sample, 24 if n <= 12 else 6)]
    for n, index in [(12, 41), (20, 81)]:
        inst = generate_benchmark_set(n=n, seed=7).instances[index - 1]
        grid += [(inst, StrategyConfig(s, descent_rule=rule,
                                       probe_budget=probe, seed=n,
                                       nested=nested))
                 for s, probe in [*zip(Strategy, [100] * 3),
                                  (Strategy.ADAPTIVE, 1)]
                 for rule in DescentRule for nested in (False, True)]
    for k, (inst, config) in enumerate(grid):
        budget = rng.randint(1, 3 * inst.n * inst.n)
        yield inst, config, budget, None if k % 4 == 0 else budget


@pytest.fixture(scope="module")
def grid_runs():
    """Per configuration, `(instance, config, result, calls)` for its runs
    without a budget, at its budget and, when n <= 12, at 1, 2 and the
    unbudgeted total - 1, + 0 and + 1, `calls` holding each `descend` call's
    cap and evaluations; and `(kernel, reference, log)` for its run at the
    reference budget through the from-scratch descent, logging objectives."""
    groups, references, calls, log = [], [], [], []
    def recording(*args, max_candidates=None, **kwargs):
        result = descend(*args, max_candidates=max_candidates, **kwargs)
        calls.append((max_candidates, result.evaluations))
        return result
    def from_scratch(*args, scans=None, **kwargs):
        # The reference scores every scan: it keeps none to replay.
        return reference_engine.descend(*args, **kwargs)
    def logging_objective(instance, order):
        log.append(objective_value(instance, order))
        return log[-1]
    def record(inst, config, budget):
        calls.clear()
        config = replace(config, max_evaluations=budget)
        return inst, config, run(inst, config), list(calls)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "descend", recording)
        for inst, config, budget, reference in run_grid():
            free = record(inst, config, None)
            total = free[2].evaluations_total
            budgets = {budget} | ({1, 2, total - 1, total, total + 1} - {0}
                                  if inst.n <= 12 else set())
            groups.append([free] + [record(inst, config, b)
                                    for b in sorted(budgets)])
            kernel = {g[1].max_evaluations: g for g in groups[-1]}[reference]
            with pytest.MonkeyPatch.context() as r:
                r.setattr(engine, "descend", from_scratch)
                for module in engine, reference_engine:
                    r.setattr(module, "objective_value", logging_objective)
                log.clear()
                references.append((kernel[2], run(inst, kernel[1]), list(log)))
    return groups, references


def test_grid_runs_account_for_every_evaluation(grid_runs):
    # 1 for the start plus each descend call's report, none above its cap.
    groups, references = grid_runs
    assert len(groups) == len(references) == 12 * 24 + 18 * 6 + 32
    for _, config, result, calls in itertools.chain(*groups):
        assert 1 + sum(e for _, e in calls) == result.evaluations_total, config
        assert all(cap is None or e <= cap for cap, e in calls), config


def test_grid_runs_keep_their_best(grid_runs):
    for inst, config, result, _ in itertools.chain(*grid_runs[0]):
        assert_valid_trace(result.trace)
        assert result.best_objective == result.trace.points[-1][1] \
            == objective_value(inst, result.best_sequence), config


def test_unbudgeted_grid_runs_stop_only_at_a_local_optimum(grid_runs):
    optimum = functools.cache(brute_force_optimum)
    certified = functools.cache(certify_local_optimum)  # many runs end alike
    for (inst, config, result, _), *_ in grid_runs[0]:
        assert result.terminated_by is Termination.ALL_NEIGHBORHOODS_EXHAUSTED
        assert certified(inst, result.best_sequence, CANONICAL_ORDER,
                         config.nested), config
        assert result.evaluations_total >= 1 + sum(
            neighborhood_size(kind, inst.n, config.nested)
            for kind in Neighborhood)
        if inst.n <= MAX_EXACT_N:
            assert result.best_objective >= optimum(inst)[0]


def test_a_budget_only_truncates_a_grid_run(grid_runs):
    for (_, _, free, _), *budgeted in grid_runs[0]:
        for _, config, result, _ in budgeted:
            budget = config.max_evaluations
            if budget >= free.evaluations_total:
                assert result == free, config
                continue
            assert result.terminated_by is Termination.EVALUATION_BUDGET
            assert result.evaluations_total == budget, config
            assert result.trace.points == [
                point for point in free.trace.points if point[0] <= budget]


def test_grid_runs_equal_the_reference_descent(grid_runs):
    # The trace holds exactly the log's strict running minima, 1-based.
    for kernel, reference, log in grid_runs[1]:
        assert reference == kernel
        assert len(log) == reference.evaluations_total
        low = list(itertools.accumulate(log, min))
        assert reference.trace.points == [
            (k, v) for k, v in enumerate(low, 1) if k == 1 or v < low[k - 2]]
