"""The delta-evaluation kernel of `engine.descend` against from-scratch
evaluation: move by move, and run by run against the reference descent in
`tests/reference_engine.py`."""

import itertools
import math
import random

import pytest

from smtwtp_vnd import (
    DescentRule,
    InitialOrder,
    Instance,
    Move,
    Neighborhood,
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


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_every_candidate_value_is_exact(kind, nested):
    rng = random.Random(f"{kind.value}-{nested}")
    for n in range(1, 31):
        for inst in instances(rng, n):
            seq = tuple(rng.sample(range(n), n))
            objective = objective_value(inst, seq)
            moves = enumerate_moves(kind, n, nested)
            exact = [objective_value(inst, apply_move(seq, m)) for m in moves]

            def first_scan(limit):
                return engine._candidates(inst, seq, kind, nested, objective,
                                          [limit], [], None)

            # Screen off: every move, in enumerate_moves order, scored exactly.
            scan = list(first_scan(math.inf))
            assert [(i, j) for i, j, _ in scan] == [(m.i, m.j) for m in moves]
            assert [value for _, _, value in scan] == exact
            # Screen always on: what EX yields is its lower bound.
            scan = first_scan(-math.inf)
            assert all(value <= e for (_, _, value), e in zip(scan, exact))
            # Screened against the incumbent: a value below it is exact, and
            # one that is not leaves no improving move unseen.
            for (_, _, value), e in zip(first_scan(objective), exact):
                assert value <= e and (value < objective) == (e < objective)
                if value < objective:
                    assert value == e


@pytest.mark.parametrize("kind", [Neighborhood.APEX, Neighborhood.BR4,
                                  Neighborhood.BR5, Neighborhood.BR6])
def test_chained_rescans_are_exact(kind):
    # A reversal rescan re-scores only the blocks that overlap the accepted
    # one.  Accept a random chain of blocks, the first and the last among
    # them, and abandon scans after a random number of candidates, as first
    # improvement, the probe cap and the budget do: every value a rescan
    # yields is still the objective of its move.
    rng = random.Random(kind.value)
    k = engine._BLOCK_LENGTH[kind]
    checked = 0
    for n in range(1, 31):
        moves = enumerate_moves(kind, n)
        for inst in instances(rng, n):
            seq = tuple(rng.sample(range(n), n))
            objective = objective_value(inst, seq)
            chain = ([0, n - k] + [rng.randrange(n - k + 1) for _ in range(8)]
                     if moves else [])
            rng.shuffle(chain)
            kept = []
            for a in [None, *chain]:
                if a is not None:
                    seq = apply_move(seq, Move(kind, a, a + k - 1))
                    objective = objective_value(inst, seq)
                scan = engine._candidates(inst, seq, kind, False, objective,
                                          [objective], kept, a)
                taken = rng.randint(0, len(moves))
                for (i, j, value), move in itertools.islice(
                        zip(scan, moves), taken):
                    assert (i, j) == (move.i, move.j)
                    assert value == objective_value(
                        inst, apply_move(seq, move))
                    checked += 1
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
