"""The from-scratch descent, the reference for `engine.descend`.

Every candidate is built with `apply_move` and scored with
`objective_value`.  The differential tests run `engine.run` with
`engine.descend` replaced by this function and require identical results,
so the delta kernel must reproduce its evaluation counts, traces and tie
breaks exactly.
"""

import math

from smtwtp_vnd.core import EvalCounter, Instance, RunTrace, Sequence, objective_value
from smtwtp_vnd.engine import DescentResult, DescentRule, StrategyConfig
from smtwtp_vnd.neighborhoods import Neighborhood, apply_move, enumerate_moves


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
                trace.record_if_improved(counter.count, obj)
                best_obj, best_seq = obj, cand
                if config.descent_rule is DescentRule.FIRST_IMPROVEMENT:
                    break
        if best_seq is None:
            break
        # Rescan from the new incumbent; after a stop the rescan stops too.
        current, current_obj = best_seq, best_obj

    return DescentResult(current, current_obj, counter.count - entry,
                         stopped and stop < cap)
