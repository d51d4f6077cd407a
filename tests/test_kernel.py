"""The delta-evaluation kernel of `engine.descend` against from-scratch
evaluation, move by move.  `tests/test_engine.py`'s run grid compares whole
runs with the reference descent in `tests/reference_engine.py`."""

import itertools
import math
import random

import pytest

from smtwtp_vnd import (
    Instance,
    Neighborhood,
    RunTrace,
    Strategy,
    StrategyConfig,
    apply_move,
    enumerate_moves,
    objective_value,
)
from smtwtp_vnd import engine
from smtwtp_vnd.core import EvalCounter

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
    """Job data, completion time and cost at each position of `seq`."""
    P = [inst.processing[job] for job in seq]
    W = [inst.weight[job] for job in seq]
    D = [inst.due[job] for job in seq]
    comp = list(itertools.accumulate(P))
    return P, W, D, comp, [w * max(0, c - d) for w, c, d in zip(W, comp, D)]


def scored(inst: Instance, seq, moves):
    """`(t, i, j, c)` for every move at index t, with c its exact change of
    objective."""
    objective = objective_value(inst, seq)
    return [(t, m.i, m.j,
             objective_value(inst, apply_move(seq, m)) - objective)
            for t, m in enumerate(moves)]


def improving(candidates):
    """What a scan against the incumbent yields: the moves that improve."""
    return [candidate for candidate in candidates if candidate[3] < 0]


def ticked(scan, counter: EvalCounter):
    """`(t, i, j, c)` for each `(i, j, c)` that `scan` yields, t being the
    move's index: the scan ticks `counter` once per move it reaches, so
    `counter.count - 1` right after a yield.  A capped tick's stop ends it."""
    try:
        for i, j, c in scan:
            yield counter.count - 1, i, j, c
    except engine._Stop:
        pass


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_every_candidate_value_is_exact(kind, nested):
    rng = random.Random(f"{kind.value}-{nested}")
    for n in range(1, 31):
        moves = enumerate_moves(kind, n, nested)
        for inst in instances(rng, n):
            seq = tuple(rng.sample(range(n), n))
            every = scored(inst, seq, moves)

            def first_scan(limit, last=len(moves)):
                counter = EvalCounter()
                # A scan stops only where `descend` caps its tick.
                tick = (engine._capped(counter.tick, last)
                        if last < len(moves) else counter.tick)
                found = list(ticked(engine._scan(
                    kind, nested, position_tables(inst, seq), [limit],
                    [0] * n, 0, n - 1, tick), counter))
                # A scan that is not broken off ticks each of its moves.
                assert counter.count == last
                return found

            # Nothing to beat: every move, at its index, scored exactly.
            assert first_scan(math.inf) == every
            # Against the incumbent: exactly the moves that improve (EX
            # screening the rest).
            assert first_scan(0) == improving(every)
            # Nothing can beat -inf.
            assert first_scan(-math.inf) == []
            # A scan that must stop before the end yields nothing past it.
            for last in sorted({0, 1, len(moves) // 2, len(moves) - 1}):
                if 0 <= last < len(moves):
                    assert first_scan(math.inf, last) == every[:last]
                    assert first_scan(0, last) == improving(every[:last])


def test_every_scan_of_every_small_permutation_is_exact():
    # Exhaustive at small n: every order of n = 1-6 jobs, for every kind and
    # nesting and three instances of different tightness.
    rng = random.Random(6)
    scans = 0
    for n in range(1, 7):
        for inst, kind, nested in itertools.product(
                list(instances(rng, n)), Neighborhood, (False, True)):
            moves = enumerate_moves(kind, n, nested)
            for seq in itertools.permutations(range(n)):
                counter = EvalCounter()
                found = ticked(engine._scan(
                    kind, nested, position_tables(inst, seq), [math.inf],
                    [0] * n, 0, n - 1, counter.tick), counter)
                assert list(found) == scored(inst, seq, moves), \
                    (kind, nested, seq)
                scans += 1
    assert scans == 3 * 7 * 2 * sum(math.factorial(n) for n in range(1, 7))


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_chained_rescans_are_exact(kind, nested, monkeypatch):
    # A descent keeps its position tables across scans and refreshes only
    # each accepted span; a reversal rescan re-scores only the blocks that
    # overlap it.  Make `descend` accept a random chain of moves, the first
    # and the last among them, and abandon each scan after a random number of
    # candidates, as first improvement does: every move a rescan yields is
    # still at its index and exact, and a scan against the incumbent yields
    # exactly what `improving` says.
    rng = random.Random(f"{kind.value}-{nested}")
    real_scan = engine._scan
    config = StrategyConfig(Strategy.FIXED, nested=nested)
    checked = 0

    def chained(kind, nested, tables, limit, change, lo, hi, tick):
        nonlocal seq, checked
        # No evaluation limit falls in these descents: the tick is not capped.
        assert limit == [0] and tick == descent_counter.tick
        # The refresh after each accept left the tables of `seq`.
        assert tables == position_tables(inst, seq)
        counter, unscreened_counter = EvalCounter(), EvalCounter()
        scan = ticked(real_scan(kind, nested, tables, limit, change, lo, hi,
                                counter.tick), counter)
        # Nothing to beat: every move is yielded.
        unscreened = ticked(real_scan(kind, nested, tables, [math.inf],
                                      change, lo, hi, unscreened_counter.tick),
                            unscreened_counter)
        taken = rng.randint(0, len(moves))
        every = scored(inst, seq, moves[:taken])
        assert list(itertools.islice(unscreened, taken)) == every
        assert unscreened_counter.count == taken
        assert list(itertools.takewhile(lambda candidate: candidate[0] < taken,
                                        scan)) == improving(every)
        checked += taken
        if chain:
            # The scan reaches the move, and a change below 0 makes the
            # descent accept it.
            move = chain.pop()
            for _ in range(moves.index(move) + 1):
                tick()
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
            descent_counter = EvalCounter()
            # Each accept claims a change of -1: start high enough that the
            # descent's objective never falls below 0.
            result = engine.descend(
                inst, start, kind, config, descent_counter, RunTrace(),
                start_objective=objective_value(inst, start) + len(chain))
            assert not chain and result.sequence == seq
    assert checked > 1000
