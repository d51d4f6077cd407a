import pickle

import pytest

from smtwtp_vnd import (
    CANONICAL_ORDER,
    Move,
    Neighborhood,
    apply_move,
    enumerate_moves,
    neighborhood_size,
)
from smtwtp_vnd.neighborhoods import _BLOCK_LENGTH

APEX = Neighborhood.APEX
BR4, BR5, BR6 = Neighborhood.BR4, Neighborhood.BR5, Neighborhood.BR6
EX = Neighborhood.EX_NO_APEX
FSH = Neighborhood.FSH_NO_APEX
BSH = Neighborhood.BSH_NO_APEX


def test_canonical_order():
    assert [k.name for k in CANONICAL_ORDER] == [
        "APEX", "BR4", "BR5", "BR6", "EX_NO_APEX", "FSH_NO_APEX", "BSH_NO_APEX",
    ]


@pytest.mark.parametrize("kind", list(Neighborhood))
def test_kind_survives_pickling_as_a_table_key(kind):
    # Kinds hash by identity, so a copy must be the member itself.
    copy = pickle.loads(pickle.dumps(kind))
    assert copy is kind and hash(copy) == hash(kind)
    assert _BLOCK_LENGTH.get(copy) == _BLOCK_LENGTH.get(kind)
    assert (copy in _BLOCK_LENGTH) == (kind.value in ("apex", "br4", "br5", "br6"))
    assert {kind: kind.value}[copy] == kind.value


def test_apply_block_reversal():
    assert apply_move((1, 2, 3, 4, 5), Move(BR4, 0, 3)) == (4, 3, 2, 1, 5)


def test_apply_forward_shift():
    assert apply_move((1, 2, 3, 4, 5), Move(FSH, 0, 2)) == (2, 3, 1, 4, 5)


def test_apply_backward_shift():
    assert apply_move((1, 2, 3, 4, 5), Move(BSH, 3, 1)) == (1, 4, 2, 3, 5)


def test_apply_exchange():
    assert apply_move((1, 2, 3, 4, 5), Move(EX, 0, 2)) == (3, 2, 1, 4, 5)


def test_apply_leaves_input_unchanged():
    order = (1, 2, 3, 4, 5)
    apply_move(order, Move(EX, 0, 4))
    assert order == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("kind,move", [
    (APEX, Move(APEX, 4, 5)),
    (BR4, Move(BR4, 2, 5)),
    (BR6, Move(BR6, 0, 5)),
    (EX, Move(EX, 3, 3)),
    (EX, Move(EX, 0, 5)),
    (FSH, Move(FSH, 2, 1)),
    (BSH, Move(BSH, 1, 3)),
    (APEX, Move(APEX, 0, 3)),
    (BR4, Move(BR4, 0, 7)),
    (BR5, Move(BR5, 0, 3)),
    (BSH, Move(BSH, 2, 2)),
    (APEX, Move(APEX, -1, 0)),
    (EX, Move(EX, -1, 2)),
    (BSH, Move(BSH, 2, -1)),
])
def test_apply_rejects_out_of_range(kind, move):
    with pytest.raises(ValueError, match="out of range for n=5"):
        apply_move((0, 1, 2, 3, 4), move)


# Block lengths of the reversals, stated apart from the package's table.
_BLOCK = {APEX: 2, BR4: 4, BR5: 5, BR6: 6}


def definition(kind, n, nested):
    """Every move of `kind` on n positions, filtered from all n * n pairs
    (i, j) in ascending order: a block i..j, or j >= i + gap (j <= i - gap
    for BSH), where nested mode abolishes the adjacent exclusion."""
    gap = 1 if nested else 2
    block = _BLOCK.get(kind)

    def keep(i, j):
        if block is not None:
            return j - i == block - 1
        return (i - j if kind is BSH else j - i) >= gap
    return [Move(kind, i, j) for i in range(n) for j in range(n) if keep(i, j)]


def _reference_apply(order, move):
    """`move` applied to `order` from the operator definitions: reverse the
    block i..j, swap i and j, or move the job at i to j."""
    kind, i, j = move
    block = _BLOCK.get(kind)
    if block is not None:
        assert j - i + 1 == block
        return tuple(order[i + j - p] if i <= p <= j else order[p]
                     for p in range(len(order)))
    result = list(order)
    if kind is EX:
        result[i], result[j] = order[j], order[i]
    else:
        result.insert(j, result.pop(i))
    return tuple(result)


# Every size the engine's run grid runs, and the paper's n = 100 (whose
# literal counts are acceptance criterion 1).
@pytest.mark.parametrize("n", [*range(1, 31), 100])
@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_moves_match_their_definitions(kind, nested, n):
    moves = list(enumerate_moves(kind, n, nested))
    assert moves == definition(kind, n, nested)
    assert neighborhood_size(kind, n, nested) == len(moves)
    order = tuple(range(10, 10 + n))
    for move in moves if n <= 12 else []:
        neighbor = apply_move(order, move)
        assert neighbor == _reference_apply(order, move), move
        # The move changes exactly the span between its two positions.
        changed = [p for p in range(n) if neighbor[p] != order[p]]
        assert (changed[0], changed[-1]) == tuple(sorted(move[1:])), move
