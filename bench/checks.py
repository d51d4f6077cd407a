"""Correctness checks for every cell of a benchmark experiment, and their
self-test.

Every check works on a `Cell`: one (instance, strategy, seed) run as the
experiment reported it.  The checks compare against computations made apart
from the engine's evaluation path (the evaluator below, the closed-form
neighborhood sizes, `oracle.certify_local_optimum`,
`oracle.brute_force_optimum`) or against properties the method must have.
All of them run outside every timed region.

Run `python3 bench/checks.py` from the repository root for the self-test:
each check must reject a deliberately corrupted result.
"""

from dataclasses import dataclass, replace

BUDGET = "evaluation_budget"
EXHAUSTED = "all_neighborhoods_exhausted"


@dataclass(frozen=True)
class Cell:
    """One reported run, as read back from the experiment's outputs."""

    key: tuple[int, str, int]          # (1-based instance index, strategy, seed)
    data: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # p, w, d
    sequence: tuple[int, ...]
    final_objective: int
    evaluations: int
    terminated_by: str
    trace: tuple[tuple[int, int], ...]
    budget: int | None
    nested: bool
    optimum: int | None = None          # brute-force optimum, desk scale only


def weighted_tardiness(data, order) -> int:
    """Total weighted tardiness of `order`, written apart from the package."""
    processing, weight, due = data
    clock = 0
    total = 0
    for job in order:
        clock += processing[job]
        if clock > due[job]:
            total += weight[job] * (clock - due[job])
    return total


def min_exhaustive_evaluations(n: int, nested: bool) -> int:
    """1 + the summed sizes of the seven neighborhoods, from closed forms:
    a fixed or random run that ends by exhaustion has scanned every
    neighborhood of its final sequence in full, after the initial
    evaluation."""
    apex = max(0, n - 1)
    blocks = sum(max(0, n - k + 1) for k in (4, 5, 6))
    pairs = n * (n - 1) // 2 if nested else (n - 1) * (n - 2) // 2
    return 1 + apex + blocks + 3 * pairs


def check_permutation(cell, pkg):
    n = len(cell.data[0])
    if sorted(cell.sequence) != list(range(n)):
        return "best sequence is not a permutation"


def check_objective(cell, pkg):
    value = weighted_tardiness(cell.data, cell.sequence)
    last = cell.trace[-1][1] if cell.trace else None
    if not value == cell.final_objective == last:
        return (f"recomputed objective {value}, reported {cell.final_objective}, "
                f"last trace point {last}")


def check_trace(cell, pkg):
    points = cell.trace
    if not points or points[0][0] != 1:
        return "trace does not start at evaluation 1"
    for (e1, b1), (e2, b2) in zip(points, points[1:]):
        if not (e2 > e1 and b2 < b1):
            return f"trace not strictly monotone at ({e1}, {b1}) -> ({e2}, {b2})"
    if points[-1][0] > cell.evaluations:
        return "trace point beyond the reported evaluations"


def check_budget(cell, pkg):
    if cell.terminated_by not in (BUDGET, EXHAUSTED):
        return f"unknown termination {cell.terminated_by!r}"
    if cell.budget is None:
        if cell.terminated_by == BUDGET:
            return "ended by a budget but none was set"
        return None
    if cell.evaluations > cell.budget:
        return f"{cell.evaluations} evaluations exceed the budget {cell.budget}"
    if cell.terminated_by == BUDGET and cell.evaluations != cell.budget:
        return f"ended by the budget after {cell.evaluations} of {cell.budget}"


def check_local_optimum(cell, pkg):
    if cell.terminated_by != EXHAUSTED or check_permutation(cell, pkg):
        return None  # a broken sequence is check_permutation's finding
    instance = pkg.core.Instance(*cell.data)
    if not pkg.oracle.certify_local_optimum(
            instance, cell.sequence, list(pkg.neighborhoods.CANONICAL_ORDER),
            cell.nested):
        return "exhausted cell is not a local optimum of all seven neighborhoods"


def check_min_evaluations(cell, pkg):
    if cell.terminated_by != EXHAUSTED or cell.key[1] == "adaptive":
        return None
    floor = min_exhaustive_evaluations(len(cell.data[0]), cell.nested)
    if cell.evaluations < floor:
        return f"exhausted after {cell.evaluations} < {floor} evaluations"


def check_optimum(cell, pkg):
    if cell.optimum is not None and cell.final_objective < cell.optimum:
        return f"objective {cell.final_objective} below the optimum {cell.optimum}"


CHECKS = (check_permutation, check_objective, check_trace, check_budget,
          check_local_optimum, check_min_evaluations, check_optimum)


def check_cell(cell, pkg) -> list[str]:
    """Names and messages of every check the cell fails."""
    failures = []
    for check in CHECKS:
        message = check(cell, pkg)
        if message:
            failures.append(f"{check.__name__}: {message}")
    return failures


def brute_force_optimum(data, pkg) -> int:
    """The oracle's optimum, with its sequence re-evaluated here."""
    value, order = pkg.oracle.brute_force_optimum(pkg.core.Instance(*data))
    if weighted_tardiness(data, order) != value:
        raise AssertionError("brute-force optimum disagrees with its sequence")
    return value


def differing_files(reference: dict[str, bytes], other: dict[str, bytes]):
    """Names of data files that differ byte for byte or exist on one side."""
    return sorted(name for name in reference.keys() | other.keys()
                  if reference.get(name) != other.get(name))


def _improving_apex_cell(cell):
    """`cell` moved to a neighbor that one APEX move improves, with its
    reported objective and trace made consistent, so only the local-optimum
    check can object."""
    order = list(cell.sequence)
    for i in range(len(order) - 1):
        worse = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
        value = weighted_tardiness(cell.data, worse)
        if value > cell.final_objective:
            return replace(cell, sequence=tuple(worse), final_objective=value,
                           trace=((1, value),))
    raise AssertionError("every APEX move of the optimum ties; pick another seed")


def self_test(pkg) -> list[str]:
    """Feed each check a corrupted copy of a genuine result; return the
    problems found (empty when every check holds up)."""
    problems = []
    orlib, engine = pkg.orlib, pkg.engine
    instance = orlib.generate_instance(n=8, seed=3, rdd=0.6, tf=0.6)
    data = (instance.processing, instance.weight, instance.due)
    cells = {}
    for strategy, budget in (("fixed", None), ("random", 20)):
        config = engine.StrategyConfig(strategy=engine.Strategy(strategy),
                                       seed=1, max_evaluations=budget)
        result = engine.run(instance, config)
        cells[strategy] = Cell(
            key=(1, strategy, 1), data=data, sequence=result.best_sequence,
            final_objective=result.best_objective,
            evaluations=result.evaluations_total,
            terminated_by=result.terminated_by.value,
            trace=tuple(result.trace.points), budget=budget, nested=False,
            optimum=brute_force_optimum(data, pkg))
    exhausted, budgeted = cells["fixed"], cells["random"]
    if exhausted.terminated_by != EXHAUSTED or budgeted.terminated_by != BUDGET:
        problems.append("self-test cells did not end as intended")
    for cell in cells.values():
        for failure in check_cell(cell, pkg):
            problems.append(f"genuine {cell.key[1]} cell rejected: {failure}")

    trace = list(exhausted.trace)
    trace[0], trace[1] = trace[1], trace[0]
    duplicate = exhausted.sequence[:1] + exhausted.sequence[:-1]
    corrupted = {
        "check_permutation": replace(exhausted, sequence=duplicate),
        "check_objective": replace(exhausted,
                                   final_objective=exhausted.final_objective + 1),
        "check_trace": replace(exhausted, trace=tuple(trace)),
        "check_budget": replace(budgeted, evaluations=budgeted.budget + 1,
                                terminated_by=BUDGET),
        "check_local_optimum": _improving_apex_cell(exhausted),
        "check_min_evaluations": replace(
            exhausted, evaluations=min_exhaustive_evaluations(8, False) - 1),
        "check_optimum": replace(exhausted,
                                 final_objective=exhausted.optimum - 1),
    }
    for name, cell in corrupted.items():
        if not any(f.startswith(name + ":") for f in check_cell(cell, pkg)):
            problems.append(f"{name} accepted a corrupted result")
    reference = {"summary.csv": b"instance\n1\n"}
    if not differing_files(reference, {"summary.csv": b"instance\n2\n"}):
        problems.append("differing_files missed a changed byte")
    return problems


if __name__ == "__main__":
    import sys

    from run import import_package

    pkg = import_package()
    problems = self_test(pkg)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else f"passed: {len(CHECKS)} checks, "
          "each rejects its corrupted result")
    sys.exit(1 if problems else 0)
