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
            moves = enumerate_moves(kind, n, nested)
            exact = [objective_value(inst, apply_move(seq, m)) for m in moves]
            # Screen off: every move, in enumerate_moves order, scored exactly.
            scan = list(engine._candidates(inst, seq, kind, nested, [math.inf]))
            assert [(i, j) for i, j, _ in scan] == [(m.i, m.j) for m in moves]
            assert [value for _, _, value in scan] == exact
            # Screen always on: what EX yields is its lower bound.
            scan = engine._candidates(inst, seq, kind, nested, [-math.inf])
            assert all(value <= e for (_, _, value), e in zip(scan, exact))
            # Screened against the incumbent: a value below it is exact, and
            # one that is not leaves no improving move unseen.
            limit = objective_value(inst, seq)
            scan = engine._candidates(inst, seq, kind, nested, [limit])
            for (_, _, value), e in zip(scan, exact):
                assert value <= e and (value < limit) == (e < limit)
                if value < limit:
                    assert value == e


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
