"""Exact ground truth for small instances.

Used to certify search results: exact optimum for n <= 16 and an
enumeration-based local-optimality check.  The certificate's scan shares no
code with the engine's: it builds every neighbour with `enumerate_moves`
and `apply_move` and scores it with its own from-scratch objective, while
the engine scores candidates by delta evaluation and applies only the
moves it accepts.  The closed-form sizes, the reference move definitions
in the tests and the differential sweep pin the move code.
"""

from .core import Instance, Sequence, _require, is_permutation
from .neighborhoods import Neighborhood, apply_move, enumerate_moves

MAX_EXACT_N = 16


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

    Refuses instances with more than MAX_EXACT_N jobs.  Dynamic programming
    over job subsets (Held & Karp, J. SIAM 10(1), 1962): the jobs of a set S
    end at P(S) in any order, so the least cost of the jobs after S is the
    least, over the next job j, of j's cost when it ends at P(S) + p_j plus
    the least cost of the jobs after S + {j}.  Reading the least such j
    forwards gives the lexicographically smallest optimal sequence.
    """
    n = instance.n
    if n > MAX_EXACT_N:
        raise ValueError(
            f"exhaustive search refused for n={n} (limit {MAX_EXACT_N})"
        )
    p, w, d = instance.processing, instance.weight, instance.due
    full = (1 << n) - 1
    end = [0] * (full + 1)  # P(S), from S without its lowest job
    for s in range(1, full + 1):
        low = s & -s
        end[s] = end[s ^ low] + p[low.bit_length() - 1]
    # rest[S] and the least next job attaining it, first[S]; every superset
    # of S is filled before S.
    rest = [0] * (full + 1)
    first = [0] * full
    for s in range(full - 1, -1, -1):
        best = None
        for j in range(n):
            bit = 1 << j
            if not s & bit:
                late = end[s | bit] - d[j]
                cost = rest[s | bit] + (w[j] * late if late > 0 else 0)
                if best is None or cost < best:
                    best, first[s] = cost, j
        rest[s] = best
    order, s = [], 0
    while s != full:
        order.append(first[s])
        s |= 1 << first[s]
    return rest[0], tuple(order)


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
