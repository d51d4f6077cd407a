"""The delta-evaluation kernel of `engine.descend` against from-scratch
evaluation: move by move, and run by run against the reference descent in
`tests/reference_engine.py`."""

import itertools
import math
import random

import pytest

from smtwtp_vnd import (
    DescentRule,
    EvalCounter,
    InitialOrder,
    Instance,
    Neighborhood,
    RunTrace,
    Strategy,
    StrategyConfig,
    apply_move,
    enumerate_moves,
    objective_value,
    run,
)
from smtwtp_vnd import engine

from . import reference_engine
from .conftest import random_instance


def instances(rng: random.Random, n: int):
    """A random instance, one with no tardy job in any order and one with
    every job tardy in every order."""
    inst = random_instance(rng, n)
    horizon = sum(inst.processing)
    yield inst
    yield Instance(inst.processing, inst.weight, (horizon,) * n)
    yield Instance(inst.processing, inst.weight, (0,) * n)


def position_tables(inst: Instance, seq):
    """Job data and completion time at each position of `seq`."""
    P = [inst.processing[job] for job in seq]
    return (P, [inst.weight[job] for job in seq],
            [inst.due[job] for job in seq], list(itertools.accumulate(P)))


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_every_candidate_value_is_exact(kind, nested):
    rng = random.Random(f"{kind.value}-{nested}")
    for n in range(1, 31):
        for inst in instances(rng, n):
            seq = tuple(rng.sample(range(n), n))
            objective = objective_value(inst, seq)
            moves = enumerate_moves(kind, n, nested)
            exact = [objective_value(inst, apply_move(seq, m)) - objective
                     for m in moves]

            def first_scan(limit):
                return engine._scan(kind, nested, position_tables(inst, seq),
                                    [limit], [0] * n, 0, n - 1)

            # Screen off: every move, in enumerate_moves order, scored exactly.
            scan = list(first_scan(math.inf))
            assert [(i, j) for i, j, _ in scan] == [(m.i, m.j) for m in moves]
            assert [c for _, _, c in scan] == exact
            # Screen always on: what EX yields is its lower bound.
            scan = first_scan(-math.inf)
            assert all(c <= e for (_, _, c), e in zip(scan, exact))
            # Screened against the incumbent: a change below 0 is exact, and
            # one that is not leaves no improving move unseen.
            for (_, _, c), e in zip(first_scan(0), exact):
                assert c <= e and (c < 0) == (e < 0)
                if c < 0:
                    assert c == e


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_chained_rescans_are_exact(kind, nested, monkeypatch):
    # A descent keeps its position tables across scans and refreshes only
    # each accepted span; a reversal rescan re-scores only the blocks that
    # overlap it.  Make `descend` accept a random chain of moves, the first
    # and the last among them, and abandon each scan after a random number of
    # candidates, as first improvement, the probe cap and the budget do:
    # every change a rescan yields is still exact (EX's only below 0, with
    # its screen on).
    rng = random.Random(f"{kind.value}-{nested}")
    real_scan = engine._scan
    config = StrategyConfig(Strategy.FIXED, nested=nested)
    screened = kind is Neighborhood.EX_NO_APEX
    checked = 0

    def chained(kind, nested, tables, limit, change, lo, hi):
        nonlocal seq, checked
        objective = objective_value(inst, seq)
        scan = real_scan(kind, nested, tables, limit, change, lo, hi)
        # EX with its screen off; the other kinds ignore the screen.
        unscreened = real_scan(kind, nested, tables, [math.inf], change,
                               lo, hi)
        taken = rng.randint(0, len(moves))
        for (i, j, c), (_, _, exact_c), move in itertools.islice(
                zip(scan, unscreened, moves), taken):
            e = objective_value(inst, apply_move(seq, move)) - objective
            assert (i, j) == (move.i, move.j) and exact_c == e
            assert c == e or screened and 0 <= c <= e
            checked += 1
        if chain:
            # A change below 0 makes the descent accept the move.
            move = chain.pop()
            seq = apply_move(seq, move)
            yield move.i, move.j, -1

    monkeypatch.setattr(engine, "_scan", chained)
    for n in range(1, 31):
        moves = enumerate_moves(kind, n, nested)
        for inst in instances(rng, n):
            seq = start = tuple(rng.sample(range(n), n))
            chain = ([moves[0], moves[-1], *rng.choices(moves, k=8)]
                     if moves else [])
            rng.shuffle(chain)
            result = engine.descend(
                inst, start, kind, config, EvalCounter(), RunTrace(),
                start_objective=objective_value(inst, start))
            assert not chain and result.sequence == seq
    assert checked > 1000


def test_runs_equal_the_reference_descent(monkeypatch):
    # A seeded sample of n = 1-30 x strategy x rule x nesting x initial
    # order x budget (none, or one that may stop the run) x probe budget.
    rng = random.Random(12)
    grid = list(itertools.product(Strategy, DescentRule, (False, True),
                                  InitialOrder, (False, True), (1, 100)))
    runs = 0
    for n in range(1, 31):
        inst = random_instance(rng, n)
        for strategy, rule, nested, initial, tight, probe in rng.sample(
                grid, 24 if n <= 12 else 6):
            config = StrategyConfig(
                strategy=strategy, descent_rule=rule, probe_budget=probe,
                seed=runs, nested=nested, initial=initial,
                max_evaluations=rng.randint(1, 3 * n * n) if tight else None)
            kernel = run(inst, config)
            with monkeypatch.context() as m:
                m.setattr(engine, "descend", reference_engine.descend)
                reference = run(inst, config)
            assert kernel == reference, config
            runs += 1
    assert runs == 12 * 24 + 18 * 6
