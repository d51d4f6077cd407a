"""Descent within one neighborhood and the VND loop of the three strategies.

`run` evaluates the initial sequence once, then repeatedly picks a
neighborhood from those still eligible and descends in it until no move
improves, until none of the seven can improve the incumbent (or an
evaluation budget runs out).  The strategies differ only in that pick:
`fixed` takes the first eligible one in canonical order, `random` draws one
uniformly, and `adaptive` probes all seven with short capped descents and
continues in the one whose probe got furthest.  Every candidate objective
determination ticks the shared counter, so runs of different strategies
are comparable on the evaluation axis alone.
"""

import random
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, get_args

from .core import (
    EvalCounter,
    Instance,
    RunTrace,
    Sequence,
    objective_value,
)
from .neighborhoods import (
    CANONICAL_ORDER,
    Neighborhood,
    apply_move,
    enumerate_moves,
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
    on its scan's best goes to `trace`.  `max_candidates` caps the number of
    candidate evaluations of this call (used by adaptive probes); the global
    `config.max_evaluations` cap sets `budget_hit` on the result instead.
    When a cap interrupts a best-improvement scan, the best improving
    candidate seen so far in that scan is still accepted, so the returned
    sequence is always the best sequence evaluated.
    """
    current, current_obj = tuple(start), start_objective
    moves = enumerate_moves(kind, instance.n, config.nested)
    max_evals = config.max_evaluations
    best_rule = config.descent_rule is DescentRule.BEST_IMPROVEMENT
    entry = counter.count
    budget_hit = False

    descending = bool(moves)
    while descending:
        best_seq: Sequence | None = None
        best_obj = current_obj
        stopped = False
        for move in moves:
            if (max_candidates is not None
                    and counter.count - entry >= max_candidates):
                stopped = True
                break
            if max_evals is not None and counter.count >= max_evals:
                stopped = budget_hit = True
                break
            cand = apply_move(current, move)
            obj = objective_value(instance, cand)
            counter.tick()
            # The run's best is never above the scan's, so only a scan
            # improvement can be a new point of the trace.
            if obj < best_obj:
                trace.record_if_improved(counter, obj)
                best_obj = obj
                best_seq = cand
                if not best_rule:
                    break
        if best_seq is not None:
            current, current_obj = best_seq, best_obj
            # A first-improvement move rescans from the top; an interrupted
            # scan cannot continue either way.
            descending = not stopped
        else:
            descending = False

    return DescentResult(current, current_obj, counter.count - entry,
                         budget_hit)


def run(instance: Instance, config: StrategyConfig) -> RunResult:
    """Run the strategy selected by `config` on `instance`.

    Each round picks one of the neighborhoods still eligible (kept in
    canonical order) and descends in it from the incumbent.  `fixed` takes
    the first, `random` draws one uniformly, and `adaptive` probes all seven
    and continues from the best probe in its neighborhood.  An improvement
    makes all seven eligible again; a descent that does not improve rules
    its neighborhood out.  The run ends when none is left, when adaptive's
    probes find no improvement, or when the evaluation budget runs out.
    """
    rng = random.Random(config.seed)
    counter, trace = EvalCounter(), RunTrace()
    current = initial_sequence(instance, config, rng)
    current_obj = objective_value(instance, current)
    counter.tick()
    trace.record_if_improved(counter, current_obj)

    remaining = list(CANONICAL_ORDER)
    budget_hit = False
    while remaining and not budget_hit:
        # Adaptive measures improvement from before its probes, so a
        # descent that only keeps what its probe found still counts.
        before = current_obj
        if config.strategy is Strategy.FIXED:
            kind = remaining[0]
        elif config.strategy is Strategy.RANDOM:
            kind = remaining[rng.randrange(len(remaining))]
        else:
            # Probe every neighborhood with a capped descent, stopping at
            # the budget, and continue from the lowest probe (canonical
            # order breaks ties).
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
            if budget_hit or current_obj >= before:
                break
        res = descend(instance, current, kind, config, counter, trace,
                      start_objective=current_obj)
        current, current_obj = res.sequence, res.objective
        budget_hit = res.budget_hit
        if current_obj < before:
            remaining = list(CANONICAL_ORDER)
        else:
            remaining.remove(kind)

    reason = (Termination.EVALUATION_BUDGET if budget_hit
              else Termination.ALL_NEIGHBORHOODS_EXHAUSTED)
    return RunResult(current, current_obj, trace, counter.count, reason)
