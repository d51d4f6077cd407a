"""The seven permutation move operators and their enumeration.

Operators act on positions in the sequence, not on job identities.  They
come in three families, and `Move(kind, i, j)` means the same within each:

* reversal -- reverse positions i..j: APEX (a block of 2, which exchanges
              two adjacent positions) and BR4/BR5/BR6 (blocks of 4/5/6).
* exchange -- swap positions i < j: EX\\APEX, with j >= i + 2.
* shift    -- move the job at position i to position j, the jobs in between
              moving one place: FSH\\APEX (j >= i + 2, a later position)
              and BSH\\APEX (j <= i - 2, an earlier one).

With nested mode on, the adjacent exclusion of EX/FSH/BSH is abolished and
those three operators contain APEX as a special case.
"""

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .core import Sequence


class Neighborhood(Enum):
    """The seven operators, in canonical order."""

    APEX = "apex"
    BR4 = "br4"
    BR5 = "br5"
    BR6 = "br6"
    EX_NO_APEX = "ex"
    FSH_NO_APEX = "fsh"
    BSH_NO_APEX = "bsh"


CANONICAL_ORDER: tuple[Neighborhood, ...] = tuple(Neighborhood)

_BLOCK_LENGTH = {Neighborhood.APEX: 2, Neighborhood.BR4: 4,
                 Neighborhood.BR5: 5, Neighborhood.BR6: 6}


class Move(NamedTuple):
    """One move: operator kind plus the two positions that determine it.

    A reversal reverses positions i..j (so j = i + block length - 1), an
    exchange swaps positions i and j, and a shift moves the job at position
    i to position j.
    """

    kind: Neighborhood
    i: int
    j: int


class SizeCounts(NamedTuple):
    """Distinct neighbor count and the ordered-pair count.

    The two differ only for EX, where every exchange can be written as the
    ordered pairs (i, j) and (j, i); enumeration and descent always use
    distinct neighbors.
    """

    distinct: int
    ordered: int


class InvalidMoveError(ValueError):
    """A move whose positions are out of range for the given sequence."""


@lru_cache(maxsize=None)
def enumerate_moves(
    kind: Neighborhood, n: int, nested: bool = False
) -> tuple[Move, ...]:
    """Every distinct move of `kind` on a sequence of length n, exactly once,
    in ascending (i, j) scan order.  Empty when n is below the operator's
    minimum size."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        return tuple(Move(kind, i, i + k - 1) for i in range(n - k + 1))
    gap = 1 if nested else 2
    if kind in (Neighborhood.EX_NO_APEX, Neighborhood.FSH_NO_APEX):
        return tuple(
            Move(kind, i, j) for i in range(n) for j in range(i + gap, n)
        )
    if kind is Neighborhood.BSH_NO_APEX:
        return tuple(
            Move(kind, i, j) for i in range(n) for j in range(i - gap + 1)
        )
    raise ValueError(f"unknown neighborhood kind: {kind!r}")


def neighborhood_size(kind: Neighborhood, n: int, nested: bool = False) -> int:
    """Closed-form distinct neighbor count; equals len(enumerate_moves(...))."""
    return neighborhood_size_counts(kind, n, nested).distinct


def neighborhood_size_counts(
    kind: Neighborhood, n: int, nested: bool = False
) -> SizeCounts:
    """Closed-form sizes of `kind` for sequences of length n, clamped at 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        size = max(0, n - k + 1)
        return SizeCounts(size, size)
    # EX/FSH/BSH: one move per position pair, adjacent pairs only if nested.
    size = n * (n - 1) // 2 if nested else (n - 1) * (n - 2) // 2
    if kind is Neighborhood.EX_NO_APEX:
        return SizeCounts(size, 2 * size)
    return SizeCounts(size, size)


def apply_move(order: Sequence, move: Move) -> Sequence:
    """Apply `move` to `order` and return the new sequence.

    Purely positional: the input is left untouched and need not be a
    0-based permutation.
    """
    n = len(order)
    kind, i, j = move
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        valid = 0 <= i and j == i + k - 1 < n
    elif kind is Neighborhood.EX_NO_APEX or kind is Neighborhood.FSH_NO_APEX:
        valid = 0 <= i < j < n
    elif kind is Neighborhood.BSH_NO_APEX:
        valid = 0 <= j < i < n
    else:
        raise InvalidMoveError(f"unknown neighborhood kind: {kind!r}")
    if not valid:
        raise InvalidMoveError(
            f"{kind.name} positions ({i}, {j}) out of range for n={n}"
        )
    if k is not None:
        return order[:i] + order[i:j + 1][::-1] + order[j + 1:]
    lst = list(order)
    if kind is Neighborhood.EX_NO_APEX:
        lst[i], lst[j] = lst[j], lst[i]
    else:
        lst.insert(j, lst.pop(i))
    return tuple(lst)
