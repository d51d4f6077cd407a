"""Exact ground truth for small instances.

Used to certify search results: exhaustive optimum for n <= 10 and an
enumeration-based local-optimality check.  The certificate's scan shares no
code with the engine's: it builds every neighbour with `enumerate_moves`
and `apply_move` and scores it with its own from-scratch objective, while
the engine scores candidates by delta evaluation and applies only the
moves it accepts.  The closed-form sizes, the reference move definitions
in the tests and the differential sweep pin the move code.
"""

import math

from .core import Instance, Sequence, _require, is_permutation
from .neighborhoods import Neighborhood, apply_move, enumerate_moves

MAX_EXACT_N = 10


def _objective(instance: Instance, order: Sequence) -> int:
    # Deliberately re-stated here instead of calling core.objective_value,
    # so certification does not depend on the code path it certifies.
    t = 0
    total = 0
    for j in order:
        t += instance.processing[j]
        late = t - instance.due[j]
        if late > 0:
            total += instance.weight[j] * late
    return total


def brute_force_optimum(instance: Instance) -> tuple[int, Sequence]:
    """Minimum objective over all n! sequences and the lexicographically
    smallest sequence attaining it.

    Refuses instances with more than MAX_EXACT_N jobs.  The enumeration
    prunes on the partial objective, which is exact because every job's
    tardiness contribution is fixed once placed and non-negative.
    """
    n = instance.n
    if n > MAX_EXACT_N:
        raise ValueError(
            f"exhaustive search refused for n={n} (limit {MAX_EXACT_N})"
        )
    p, w, d = instance.processing, instance.weight, instance.due
    best_obj: float = math.inf
    best_seq: Sequence = ()
    order = [0] * n
    used = [False] * n

    def place(pos: int, t: int, acc: int) -> None:
        nonlocal best_obj, best_seq
        if pos == n:
            best_obj = acc
            best_seq = tuple(order)
            return
        for j in range(n):
            if used[j]:
                continue
            tj = t + p[j]
            late = tj - d[j]
            acc_j = acc + (w[j] * late if late > 0 else 0)
            if acc_j >= best_obj:
                continue
            used[j] = True
            order[pos] = j
            place(pos + 1, tj, acc_j)
            used[j] = False

    place(0, 0, 0)
    return int(best_obj), best_seq


def certify_local_optimum(
    instance: Instance,
    order: Sequence,
    kinds: list[Neighborhood],
    nested: bool = False,
) -> bool:
    """True iff no move of any listed neighborhood strictly improves `order`.

    Full enumeration; an empty `kinds` list is vacuously true.
    """
    _require(bool, nested=nested)
    n = instance.n
    if not is_permutation(order, n):
        raise ValueError("sequence is not a permutation of 0..n-1")
    base = _objective(instance, order)
    for kind in kinds:
        for move in enumerate_moves(kind, n, nested):
            if _objective(instance, apply_move(order, move)) < base:
                return False
    return True
