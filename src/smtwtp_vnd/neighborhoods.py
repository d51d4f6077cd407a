"""The seven permutation move operators, their enumeration and their sizes.

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

Neighborhoods hold distinct moves (an exchange is one move, not two ordered
pairs), which `neighborhood_size` counts in closed form.
"""

from enum import Enum
from typing import NamedTuple

from .core import Sequence, _require, _require_count


class Neighborhood(Enum):
    """The seven operators, in canonical order."""

    APEX = "apex"
    BR4 = "br4"
    BR5 = "br5"
    BR6 = "br6"
    EX_NO_APEX = "ex"
    FSH_NO_APEX = "fsh"
    BSH_NO_APEX = "bsh"

    # Members are singletons (unpickling returns the same one) and compare
    # by identity, so they hash by identity too: C-level, where Enum's own
    # hash runs Python code on every table lookup keyed by a kind.
    __hash__ = object.__hash__


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


def enumerate_moves(
    kind: Neighborhood, n: int, nested: bool = False
) -> tuple[Move, ...]:
    """Every distinct move of `kind` on a sequence of length n, exactly once,
    in ascending (i, j) scan order.  Empty when n is below the operator's
    minimum size."""
    _require(bool, nested=nested)
    _require_count(n=n)
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
    """Closed-form count of the distinct moves of `kind` on a sequence of
    length n, clamped at 0; equals len(enumerate_moves(kind, n, nested))."""
    # One inline compare: this runs once per descent.
    if type(n) is not int or type(nested) is not bool or n < 1:
        _require(bool, nested=nested)
        _require_count(n=n)
    if kind not in CANONICAL_ORDER:
        raise ValueError(f"unknown neighborhood kind: {kind!r}")
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        return max(0, n - k + 1)
    # EX/FSH/BSH: one move per position pair, adjacent pairs only if nested.
    return n * (n - 1) // 2 if nested else (n - 1) * (n - 2) // 2


def apply_move(order: Sequence, move: Move) -> Sequence:
    """Apply `move` to `order` and return the new sequence.

    Purely positional: the input is left untouched and need not be a
    0-based permutation.  Raises TypeError for a position that is not
    exactly an `int`, and ValueError for an unknown kind or for positions
    out of range for `order`.
    """
    n = len(order)
    kind, i, j = move
    # One inline check: this runs once per accepted move.
    if type(i) is not int or type(j) is not int:
        _require(int, i=i, j=j)
    k = _BLOCK_LENGTH.get(kind)
    if k is not None:
        valid = 0 <= i and j == i + k - 1 < n
    elif kind is Neighborhood.EX_NO_APEX or kind is Neighborhood.FSH_NO_APEX:
        valid = 0 <= i < j < n
    elif kind is Neighborhood.BSH_NO_APEX:
        valid = 0 <= j < i < n
    else:
        raise ValueError(f"unknown neighborhood kind: {kind!r}")
    if not valid:
        raise ValueError(
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
