"""Descent within one neighborhood and the VND loop of the three strategies.

`run` evaluates the initial sequence once, then repeatedly picks a
neighborhood from those still eligible and descends in it until no move
improves.  Every strategy stops by one rule: when none of the seven can
improve the incumbent (or an evaluation budget runs out).  The strategies
differ only in the pick: `fixed` takes the first eligible one in canonical
order, `random` draws one uniformly, and `adaptive` probes all seven with
short capped descents and continues in the one whose probe got furthest.
Every candidate objective determination ticks the shared counter, so runs
of different strategies are comparable on the evaluation axis alone.
"""

import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, get_args

from .core import EvalCounter, Instance, RunTrace, Sequence, objective_value
from .neighborhoods import (
    CANONICAL_ORDER,
    Neighborhood,
    apply_move,
    enumerate_moves,
    neighborhood_size,
)


class Strategy(Enum):
    RANDOM = "random"
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


class DescentRule(Enum):
    BEST_IMPROVEMENT = "best"
    FIRST_IMPROVEMENT = "first"


class InitialOrder(Enum):
    AS_GIVEN = "as-given"
    EDD = "edd"
    RANDOM = "random"


class Termination(Enum):
    ALL_NEIGHBORHOODS_EXHAUSTED = "all_neighborhoods_exhausted"
    EVALUATION_BUDGET = "evaluation_budget"


@dataclass(frozen=True)
class StrategyConfig:
    """Everything that determines a run besides the instance itself."""

    strategy: Strategy
    descent_rule: DescentRule = DescentRule.BEST_IMPROVEMENT
    probe_budget: int = 100
    seed: int = 0
    nested: bool = False
    max_evaluations: int | None = None
    initial: InitialOrder = InitialOrder.AS_GIVEN

    def __post_init__(self):
        for f in fields(self):
            # Exact types: `bool` is an `int` subclass, not a count or seed.
            value = getattr(self, f.name)
            if type(value) not in (get_args(f.type) or (f.type,)):
                name = getattr(f.type, "__name__", f.type)
                raise TypeError(f"{f.name} must be {name}, got {value!r}")
        if self.probe_budget < 1:
            raise ValueError("probe_budget must be >= 1")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1 when set")


@dataclass(frozen=True)
class RunResult:
    best_sequence: Sequence
    best_objective: int
    trace: RunTrace
    evaluations_total: int
    terminated_by: Termination


class DescentResult(NamedTuple):
    sequence: Sequence
    objective: int
    evaluations: int
    budget_hit: bool


def initial_sequence(instance: Instance, config: StrategyConfig,
                     rng: random.Random) -> Sequence:
    n = instance.n
    if config.initial is InitialOrder.AS_GIVEN:
        return tuple(range(n))
    if config.initial is InitialOrder.EDD:
        return tuple(sorted(range(n), key=lambda j: (instance.due[j], j)))
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def descend(
    instance: Instance,
    start: Sequence,
    kind: Neighborhood,
    config: StrategyConfig,
    counter: EvalCounter,
    trace: RunTrace,
    *,
    start_objective: int,
    max_candidates: int | None = None,
) -> DescentResult:
    """Descend from `start`, whose objective is `start_objective`, within
    one neighborhood until no move improves.

    Only candidate sequences are evaluated (and counted).  Scans run in the
    neighborhood's deterministic move order, and a candidate that improves
    on its scan's best goes to `trace`.  A scan stops when the counter
    reaches `max_candidates` evaluations of this call (adaptive's probe cap)
    or the run's `config.max_evaluations`; `budget_hit` says the budget
    stopped one first (the cap wins a tie).  The best improving candidate of
    a stopped scan is still accepted, so the returned sequence is always the
    best sequence evaluated.
    """
    current, current_obj = tuple(start), start_objective
    moves = enumerate_moves(kind, instance.n, config.nested)
    entry = counter.count
    # One stop count per call; a limit that is not set is none.
    cap = math.inf if max_candidates is None else entry + max_candidates
    stop = min(cap, config.max_evaluations or math.inf)
    stopped = False

    while True:
        best_seq, best_obj = None, current_obj
        for move in moves:
            if counter.count >= stop:
                stopped = True
                break
            cand = apply_move(current, move)
            obj = objective_value(instance, cand)
            counter.tick()
            # The run's best is never above the scan's, so only a scan
            # improvement can be a new point of the trace.
            if obj < best_obj:
                trace.record_if_improved(counter, obj)
                best_obj, best_seq = obj, cand
                if config.descent_rule is DescentRule.FIRST_IMPROVEMENT:
                    break
        if best_seq is None:
            break
        # Rescan from the new incumbent; after a stop the rescan stops too.
        current, current_obj = best_seq, best_obj

    return DescentResult(current, current_obj, counter.count - entry,
                         stopped and stop < cap)


def run(instance: Instance, config: StrategyConfig) -> RunResult:
    """Run the strategy selected by `config` on `instance`.

    Each round picks one of the neighborhoods still eligible (kept in
    canonical order) and descends in it from the incumbent.  `fixed` takes
    the first, `random` draws one uniformly, and `adaptive` probes all seven
    once per incumbent and continues from the best probe in its
    neighborhood.  An improvement makes all seven eligible again; a descent
    that does not improve rules its neighborhood out.  If no probe improves,
    those that stayed under their cap rule theirs out, and adaptive descends
    in the rest as `fixed` does, rescanning moves its probes saw.  The run
    ends only when none is left or the budget runs out, so for every
    strategy exhaustion means each neighborhood was scanned whole at the end.
    """
    rng = random.Random(config.seed)
    counter, trace = EvalCounter(), RunTrace()
    current = initial_sequence(instance, config, rng)
    current_obj = objective_value(instance, current)
    counter.tick()
    trace.record_if_improved(counter, current_obj)

    adaptive = probing = config.strategy is Strategy.ADAPTIVE
    remaining = list(CANONICAL_ORDER)
    budget_hit = False
    while remaining and not budget_hit:
        # Adaptive measures improvement from before its probes, so a
        # descent that only keeps what its probe found still counts.
        before = current_obj
        if probing:
            # Probe every neighborhood with a capped descent, stopping at the
            # budget; the lowest probe wins (canonical order breaks ties).
            probes = {}
            for kind in CANONICAL_ORDER:
                res = probes[kind] = descend(
                    instance, current, kind, config, counter, trace,
                    start_objective=current_obj,
                    max_candidates=config.probe_budget)
                if res.budget_hit:
                    break
            budget_hit = res.budget_hit
            kind = min(probes, key=lambda k: probes[k].objective)
            current, current_obj = probes[kind].sequence, probes[kind].objective
            if current_obj >= before:
                # Only a probe under its cap scanned its whole neighborhood.
                probing = False
                remaining = [k for k in CANONICAL_ORDER if neighborhood_size(
                    k, instance.n, config.nested) > config.probe_budget]
                continue
        elif config.strategy is Strategy.RANDOM:
            kind = remaining[rng.randrange(len(remaining))]
        else:
            kind = remaining[0]
        res = descend(instance, current, kind, config, counter, trace,
                      start_objective=current_obj)
        current, current_obj = res.sequence, res.objective
        budget_hit = res.budget_hit
        if current_obj < before:
            remaining = list(CANONICAL_ORDER)
            probing = adaptive
        else:
            remaining.remove(kind)

    reason = (Termination.EVALUATION_BUDGET if budget_hit
              else Termination.ALL_NEIGHBORHOODS_EXHAUSTED)
    return RunResult(current, current_obj, trace, counter.count, reason)
