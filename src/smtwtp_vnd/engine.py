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
A candidate is scored from the span of positions its move changes, against
tables built once per scan.  A reversal descent keeps its tables and each
block's change of cost across its scans, and after an accept re-scores only
the blocks that overlap the accepted one; every block it yields still
counts.  An exchange whose exact lower bound shows it cannot improve on the
scan's best is not scored further, and counts too.
"""

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate
from typing import NamedTuple, get_args

from .core import EvalCounter, Instance, RunTrace, Sequence, objective_value
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


def _candidates(instance: Instance, seq: Sequence, kind: Neighborhood,
                nested: bool, objective: int, limit: list, kept: list,
                accepted: int | None) -> Iterator[tuple[int, int, int]]:
    """Yield `(i, j, value)` for every move `Move(kind, i, j)` on `seq`,
    whose objective is `objective`, in `enumerate_moves` order.

    `value` is the objective of `apply_move(seq, move)`, scored from the
    span the move changes: every job before or after it keeps its completion
    time.  The one exception is an EX candidate whose exact lower bound is
    at least `limit[0]`, the scan's best, which the caller lowers as the
    scan improves: it cannot go below that, so its value is the bound (at
    most the objective) and its inner span is not scanned.

    A descent passes each of its scans the same list `kept`, and `accepted`:
    None on its first scan, after that the `i` of the move the previous scan
    accepted, which turned its `seq` into this one.  A reversal scan keeps
    its tables and every block's change of cost in `kept`, and a rescan
    re-scores only the blocks that overlap the accepted one; the others keep
    their jobs and start times.  The other kinds build their tables from
    `seq` on every scan.
    """
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        return _reversals(instance, seq, k, objective, kept, accepted)
    p, w, d = instance.processing, instance.weight, instance.due
    P = [p[job] for job in seq]
    W = [w[job] for job in seq]
    D = [d[job] for job in seq]
    comp = list(accumulate(P))           # completion time at each position
    pre, tw = [0], [0]                   # cost, tardy weight of positions < m
    cost = weight = 0
    for c, wm, dm in zip(comp, W, D):
        if c > dm:
            cost += wm * (c - dm)
            weight += wm
        pre.append(cost)
        tw.append(weight)
    gap = 1 if nested else 2
    if kind is Neighborhood.EX_NO_APEX:
        return _exchanges(gap, P, W, D, comp, pre, tw, limit)
    if kind is Neighborhood.FSH_NO_APEX:
        return _forward_shifts(gap, P, W, D, comp, pre)
    return _backward_shifts(gap, P, W, D, comp, pre)


def _reversals(instance, seq, k, objective, kept, accepted):
    # Reverse positions i..i+k-1: change[i] is what that adds to the cost.
    # Reversing a block keeps its length, so an accept at a changes the jobs
    # and completion times of a..a+k-1 only, and only the blocks that
    # overlap them are re-scored, in O(k) each.  Every entry is filled
    # before the first is yielded: a scan may be abandoned midway.
    n = len(seq)
    if accepted is None:
        p, w, d = instance.processing, instance.weight, instance.due
        P = [p[job] for job in seq]
        W = [w[job] for job in seq]
        D = [d[job] for job in seq]
        comp, change = [0] * n, [0] * (n - k + 1)
        kept[:] = P, W, D, comp, change
        lo, hi = 0, n - k
    else:
        P, W, D, comp, change = kept
        a, b = accepted, accepted + k
        P[a:b] = P[a:b][::-1]
        W[a:b] = W[a:b][::-1]
        D[a:b] = D[a:b][::-1]
        lo, hi = max(0, a - k + 1), min(n - k, a + k - 1)
    # Completion times from lo on, whose start no accept moved, and the cost
    # of positions lo..m-1 as pre[m - lo].
    t = comp[lo - 1] if lo else 0
    pre, cost = [0], 0
    for m in range(lo, hi + k):
        t += P[m]
        comp[m] = t
        if t > D[m]:
            cost += W[m] * (t - D[m])
        pre.append(cost)
    for i in range(lo, hi + 1):
        t = comp[i] - P[i]
        value = pre[i - lo] - pre[i - lo + k]
        for m in range(i + k - 1, i - 1, -1):
            t += P[m]
            if t > D[m]:
                value += W[m] * (t - D[m])
        change[i] = value
    return zip(range(n - k + 1), range(k - 1, n),
               [objective + c for c in change])


def _exchanges(gap, P, W, D, comp, pre, tw, limit):
    # Swap positions i < j: the jobs between move by delta = P[j] - P[i].
    # max(0, L + delta) >= max(0, L) + min(delta, 0) * [L > 0], so their
    # cost is at least its value now plus min(delta, 0) times their tardy
    # weight, and at least 0; only a candidate that this bound leaves below
    # the scan's best gets the O(j - i) scan of its inner jobs.
    n = len(P)
    total = pre[n]
    for i in range(n):
        pi, wi, di = P[i], W[i], D[i]
        start = comp[i] - pi
        head = pre[i] + total
        inner_pre, inner_tw = pre[i + 1], tw[i + 1]
        for j in range(i + gap, n):
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
                if bound < 0:
                    bound = 0
            if delta == 0 or value + bound >= limit[0]:
                yield i, j, value + bound
                continue
            for m in range(i + 1, j):
                if comp[m] + delta > D[m]:
                    value += W[m] * (comp[m] + delta - D[m])
            yield i, j, value


def _forward_shifts(gap, P, W, D, comp, pre):
    # Job i to position j > i: jobs i+1..j move earlier by P[i], summed as
    # j rises, so O(1) per candidate.
    n = len(P)
    total = pre[n]
    for i in range(n - gap):
        pi, wi, di = P[i], W[i], D[i]
        head = pre[i] + total
        moved = 0
        for m in range(i + 1, i + gap):
            if comp[m] - pi > D[m]:
                moved += W[m] * (comp[m] - pi - D[m])
        for j in range(i + gap, n):
            if comp[j] - pi > D[j]:
                moved += W[j] * (comp[j] - pi - D[j])
            value = head + moved - pre[j + 1]
            if comp[j] > di:
                value += wi * (comp[j] - di)
            yield i, j, value


def _backward_shifts(gap, P, W, D, comp, pre):
    # Job i to position j < i: jobs j..i-1 move later by P[i]; per i, the
    # moved cost of j..i-1 is their total less that of 0..j-1.
    n = len(P)
    total = pre[n]
    for i in range(gap, n):
        pi, wi, di = P[i], W[i], D[i]
        moved = [W[m] * (comp[m] + pi - D[m]) if comp[m] + pi > D[m] else 0
                 for m in range(i)]
        rest = sum(moved)
        tail = total - pre[i + 1]
        start = 0
        for j in range(i - gap + 1):
            value = pre[j] + rest + tail
            if start + pi > di:
                value += wi * (start + pi - di)
            yield i, j, value
            rest -= moved[j]
            start = comp[j]


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

    Only candidate sequences are evaluated (and counted): `_candidates`
    scores every move from the span it changes, and a reversal rescan
    re-scores only the blocks that the accepted move touched.  Scans run in
    the neighborhood's deterministic move order, and a candidate that
    improves on its scan's best goes to `trace`.  A scan stops when the
    counter reaches `max_candidates` evaluations of this call (adaptive's
    probe cap) or the run's `config.max_evaluations`; `budget_hit` says the
    budget stopped one first (the cap wins a tie).  The best improving
    candidate of a stopped scan is still accepted, so the returned sequence
    is always the best sequence evaluated.
    """
    current, current_obj = tuple(start), start_objective
    first = config.descent_rule is DescentRule.FIRST_IMPROVEMENT
    entry = counter.count
    # One stop count per call; a limit that is not set is none.
    cap = math.inf if max_candidates is None else entry + max_candidates
    stop = min(cap, config.max_evaluations or math.inf)
    stopped = False
    # What reversal scans keep from one to the next, and the last accept.
    kept, accepted = [], None

    while True:
        best, best_obj = None, current_obj
        # The scan's best, which the EX bound screens against.
        limit = [best_obj]
        for i, j, obj in _candidates(instance, current, kind, config.nested,
                                     current_obj, limit, kept, accepted):
            if counter.count >= stop:
                stopped = True
                break
            counter.tick()
            # The run's best is never above the scan's, so only a scan
            # improvement can be a new point of the trace.
            if obj < best_obj:
                trace.record_if_improved(counter, obj)
                best_obj = limit[0] = obj
                best = Move(kind, i, j)
                if first:
                    break
        if best is None:
            break
        # Rescan from the new incumbent; after a stop the rescan stops too.
        current, current_obj = apply_move(current, best), best_obj
        accepted = best.i

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
