"""Descent within one neighborhood and the VND loop of the three strategies.

`run` evaluates the initial sequence once, then repeatedly picks a
neighborhood from those still eligible and descends in it until no move
improves.  Every strategy stops by one rule: when none of the seven can
improve the incumbent (or an evaluation budget runs out).  The strategies
differ only in the pick: `fixed` takes the first eligible one in canonical
order, `random` draws one uniformly, and `adaptive` probes all seven with
short capped descents and continues in the one whose probe got furthest.

Every scanned candidate is one evaluation and ticks the shared counter, so
runs of different strategies are comparable on the evaluation axis alone.
A candidate's change of objective is scored from the span of positions its
move changes.  A descent keeps each position's job data, completion time
and cost across its scans and, after an accept, refreshes only the accepted
span; a reversal descent also keeps each block's change and re-scores only
the blocks that overlap that span.  A scan ticks each candidate as it reaches
it and yields only those that improve on its best so far; an exchange whose
exact lower bound shows it cannot is not scored further.  A scan runs its
whole neighborhood unless `descend`'s capped tick stops it, at the move where
the probe cap or the evaluation budget falls.  So counts and traces are those
of scoring each candidate in turn.
"""

import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate, repeat
from typing import NamedTuple, get_args

from .core import (EvalCounter, Instance, RunTrace, Sequence, _below,
                   _require, _require_count, _require_seed, objective_value)
# enumerate_moves is unused, but bench/tracing.py wraps all three names here.
from .neighborhoods import (
    _BLOCK_LENGTH,
    CANONICAL_ORDER,
    Move,
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


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """The settings of a run besides its strategy and instance, each taken
    by keyword; `StrategyConfig` and `harness.ExperimentSpec` extend it."""

    descent_rule: DescentRule = DescentRule.BEST_IMPROVEMENT
    probe_budget: int = 100
    seed: int = 0
    nested: bool = False
    max_evaluations: int | None = None
    initial: InitialOrder = InitialOrder.AS_GIVEN


@dataclass(frozen=True)
class StrategyConfig(RunSettings):
    """Everything that determines a run besides the instance itself."""

    strategy: Strategy

    def __post_init__(self):
        for name, kinds in _FIELD_TYPES:
            _require(*kinds, **{name: getattr(self, name)})
        _require_count(probe_budget=self.probe_budget)
        _require_seed(self.seed)
        if self.max_evaluations is not None:
            _require_count(max_evaluations=self.max_evaluations)


# Each field's name and types, taken once (`get_args` would take half of a
# config's time): the strategy, the one positional field, first.
*_settings, _strategy = fields(StrategyConfig)
_FIELD_TYPES = [(f.name, get_args(f.type) or (f.type,))
                for f in (_strategy, *_settings)]


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
    # Fisher-Yates in `shuffle`'s order, each j drawn below i + 1.
    order = list(range(n))
    for i in reversed(range(1, n)):
        j = _below(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def _scan(kind: Neighborhood, nested: bool, tables: tuple, limit: list,
          change: list, lo: int, hi: int,
          tick: Callable[[], object]) -> Iterator[tuple[int, int, int]]:
    """Scan the moves of `kind`, in `enumerate_moves` order, calling
    `tick` once as it reaches each, and yield `(i, j, c)` when the
    move `Move(kind, i, j)` changes the objective by `c` < `limit[0]`, the
    scan's best change (0 at first), which the caller lowers as the scan
    improves.

    `tables` holds the job data, completion time and weighted tardiness
    (cost) at each position of the sequence, and `lo..hi` is the span whose
    jobs changed since the previous scan (every position on the first).  A
    candidate is scored from the span it changes: every job before or after
    it keeps its completion time and cost.
    EX scores a move no further once its exact lower bound reaches
    `limit[0]`.  A reversal descent keeps each block's change in `change`
    across its scans and re-scores only the blocks that overlap `lo..hi`.
    A scan runs its whole neighborhood unless `tick` raises: `descend`'s
    capped tick stops it at the move where an evaluation limit falls.
    """
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        return _reversals(k, *tables, change, lo, hi, limit, tick)
    P, W, D, comp, cost = tables
    pre = [0, *accumulate(cost)]         # cost of positions < m
    gap = 1 if nested else 2
    if kind is Neighborhood.EX_NO_APEX:
        # Tardy weight of positions < m: every weight is >= 1, so a
        # position is tardy exactly when its cost is above 0.
        tw = [0, *accumulate(wm if c else 0 for wm, c in zip(W, cost))]
        return _exchanges(gap, P, W, D, comp, pre, tw, limit, tick)
    if kind is Neighborhood.FSH_NO_APEX:
        return _forward_shifts(gap, P, W, D, comp, pre, limit, tick)
    return _backward_shifts(gap, P, W, D, comp, pre, limit, tick)


def _reversals(k, P, W, D, comp, cost, change, lo, hi, limit, tick):
    # Reverse positions i..i+k-1 (move index i): change[i] is what that adds
    # to the cost.  Only the blocks that overlap lo..hi have new jobs or
    # completion times, and each is re-scored in O(k).  Every entry is
    # filled before the first tick: a scan may be stopped midway.
    n = len(P)
    lo, hi = max(0, lo - k + 1), min(n - k, hi)
    pre = [0, *accumulate(cost[lo:hi + k])]  # cost of lo..m-1 as pre[m - lo]
    for i in range(lo, hi + 1):
        t = comp[i] - P[i]
        value = pre[i - lo] - pre[i - lo + k]
        for m in range(i + k - 1, i - 1, -1):
            t += P[m]
            if t > D[m]:
                value += W[m] * (t - D[m])
        change[i] = value
    for i in range(n - k + 1):
        tick()
        if change[i] < limit[0]:
            yield i, i + k - 1, change[i]


def _exchanges(gap, P, W, D, comp, pre, tw, limit, tick):
    # Swap positions i < j: the jobs between move by delta = P[j] - P[i].
    # max(0, L + delta) >= max(0, L) + min(delta, 0) * [L > 0], so their
    # cost is at least its value now plus min(delta, 0) times their tardy
    # weight; only a candidate that this bound leaves below the scan's best
    # gets the O(j - i) scan of its inner jobs.
    n = len(P)
    for i in range(n - gap):
        pi, wi, di = P[i], W[i], D[i]
        start = comp[i] - pi
        head = pre[i]
        inner_pre, inner_tw = pre[i + 1], tw[i + 1]
        for j in range(i + gap, n):
            tick()
            pj = P[j]
            delta = pj - pi
            value = head - pre[j + 1]
            if start + pj > D[j]:
                value += W[j] * (start + pj - D[j])
            if comp[j] > di:
                value += wi * (comp[j] - di)
            bound = pre[j] - inner_pre
            if delta < 0:
                bound += delta * (tw[j] - inner_tw)
            if value + bound >= limit[0]:
                continue
            for m in range(i + 1, j):
                if comp[m] + delta > D[m]:
                    value += W[m] * (comp[m] + delta - D[m])
            if value < limit[0]:
                yield i, j, value


def _forward_shifts(gap, P, W, D, comp, pre, limit, tick):
    # Job i to position j > i: jobs i+1..j move earlier by P[i], summed as
    # j rises, so O(1) per candidate.
    n = len(P)
    for i in range(n - gap):
        pi, wi, di = P[i], W[i], D[i]
        head = pre[i]
        moved = 0
        for m in range(i + 1, i + gap):
            if comp[m] - pi > D[m]:
                moved += W[m] * (comp[m] - pi - D[m])
        for j in range(i + gap, n):
            tick()
            if comp[j] - pi > D[j]:
                moved += W[j] * (comp[j] - pi - D[j])
            value = head + moved - pre[j + 1]
            if comp[j] > di:
                value += wi * (comp[j] - di)
            if value < limit[0]:
                yield i, j, value


def _backward_shifts(gap, P, W, D, comp, pre, limit, tick):
    # Job i to position j < i: jobs j..i-1 move later by P[i]; per i, the
    # moved cost of j..i-1 is their total less that of 0..j-1.
    n = len(P)
    for i in range(gap, n):
        pi, wi, di = P[i], W[i], D[i]
        moved = [W[m] * (comp[m] + pi - D[m]) if comp[m] + pi > D[m] else 0
                 for m in range(i)]
        rest = sum(moved)
        tail = -pre[i + 1]
        start = 0
        for j in range(i - gap + 1):
            tick()
            value = pre[j] + rest + tail
            if start + pi > di:
                value += wi * (start + pi - di)
            if value < limit[0]:
                yield i, j, value
            rest -= moved[j]
            start = comp[j]


class _Stop(Exception):
    """Raised by a capped tick at the move where a scan must stop."""


def _stop():
    raise _Stop


def _capped(tick: Callable[[], object], last: int) -> Callable[[], object]:
    """`tick` for the first `last` calls; the next raises `_Stop` before
    its move counts."""
    ticks = repeat(tick, last)
    return lambda: next(ticks, _stop)()


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
    """Descend from `start` within one neighborhood until no move improves.

    This is one step of `run`'s loop and is not checked again here: `run`
    passes a `start` that is a tuple and a permutation of the instance's
    jobs, a `start_objective` that is exactly its objective, and a
    `max_candidates` that is None or the `probe_budget` that
    `StrategyConfig` has checked.

    Only candidate sequences are evaluated (and counted): `_scan` scores
    every move's change of objective from the span it changes.  The
    descent builds the position tables of `start` (job data, completion
    time and cost) once, and after each accept refreshes them only on the
    accepted move's span, the one span whose jobs it permutes.  Scans run
    in the neighborhood's deterministic move order, tick the counter once
    per move, and yield only the moves that improve on their best so far,
    each of which goes to `trace`.  A scan runs its whole neighborhood
    unless the counter would reach `max_candidates` evaluations of this
    call (adaptive's probe cap) or the run's `config.max_evaluations`
    within it: then this function, the one place that decides where a scan
    stops, hands it a capped tick that stops it at the move where that
    limit falls.
    The best improving candidate of a stopped scan is still accepted, so
    the returned sequence is always the best sequence evaluated.  The last
    scan yields nothing, so it runs to its stop or the neighborhood's end;
    `budget_hit` says it stopped short of that end, at the budget rather
    than the cap (the cap wins a tie).
    RuntimeError is raised when an accept would not lower the objective or
    would take it below 0, so a faulty scan cannot make the descent run
    away.
    """
    current, current_obj = start, start_objective
    first = config.descent_rule is DescentRule.FIRST_IMPROVEMENT
    tick = counter.tick
    entry = counter.count
    # One stop count per call; a limit that is not set is none.
    cap = math.inf if max_candidates is None else entry + max_candidates
    stop = min(cap, config.max_evaluations or math.inf)
    p, w, d = instance.processing, instance.weight, instance.due
    n = len(current)
    size = neighborhood_size(kind, n, config.nested)
    # Job data, completion time and cost by position, and the change of
    # each reversal block (n - k + 1 <= n of them), kept across the scans.
    P, W, D, comp, cost = tables = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n
    change = [0] * n
    lo, hi = 0, n - 1

    while True:
        # Only positions lo..hi (all of them at first) hold new jobs, so
        # only their completion times and costs moved.
        clock = comp[lo - 1] if lo else 0
        for m in range(lo, hi + 1):
            job = current[m]
            P[m] = pm = p[job]
            W[m] = wm = w[job]
            D[m] = dm = d[job]
            clock += pm
            comp[m] = clock
            cost[m] = wm * (clock - dm) if clock > dm else 0
        # The scan may reach moves 0..last-1; a stop falls on move last.  A
        # scan that may run whole ticks the counter itself, at no extra cost.
        last = min(size, stop - counter.count)
        best = None
        # The scan's best change; each move the scan yields is a new best.
        limit = [0]
        try:
            for i, j, c in _scan(
                    kind, config.nested, tables, limit, change, lo, hi,
                    tick if last == size else _capped(tick, last)):
                # The run's best is never above the scan's, so only a scan
                # improvement can be a new point of the trace.
                trace.record_if_improved(counter.count, current_obj + c)
                best, limit[0] = (i, j), c
                if first:
                    break
        except _Stop:
            pass
        if best is None:
            break
        # Rescan from the new incumbent; after a stop the rescan stops too.
        i, j = best
        current = apply_move(current, Move(kind, i, j))
        current_obj += limit[0]
        # An accept lowers the objective by at least 1, and none is below 0:
        # a scan that says otherwise would make the descent run away.
        if limit[0] >= 0 or current_obj < 0:
            raise RuntimeError(f"{kind.name} scan reported change {limit[0]},"
                               f" taking the objective to {current_obj}")
        lo, hi = min(i, j), max(i, j)

    # The last scan yielded nothing, so it reached move `last`.
    return DescentResult(current, current_obj, counter.count - entry,
                         last < size and stop < cap)


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
    trace.record_if_improved(counter.count, current_obj)

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
            kind = remaining[_below(rng, len(remaining))]
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
