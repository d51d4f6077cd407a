import itertools
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


def test_apex_moves_n4():
    moves = enumerate_moves(APEX, 4)
    assert len(moves) == 3
    assert [m.i for m in moves] == [0, 1, 2]
    assert all(m.j == m.i + 1 for m in moves)


@pytest.mark.parametrize("kind,expected", [
    (APEX, 99),
    (BR4, 97),
    (BR5, 96),
    (BR6, 95),
    (EX, 4851),
    (FSH, 4851),
    (BSH, 4851),
])
def test_sizes_at_n100(kind, expected):
    assert len(enumerate_moves(kind, 100)) == expected
    assert neighborhood_size(kind, 100) == expected


def test_ex_ordered_pair_count():
    # The paper also counts exchanges as ordered pairs (i, j) and (j, i).
    assert neighborhood_size(EX, 100) == 4851
    assert 2 * neighborhood_size(EX, 100) == 100 * (100 - 3) + 2 == 9702


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_closed_forms_match_enumeration(kind, n, nested):
    moves = enumerate_moves(kind, n, nested)
    assert len(moves) == neighborhood_size(kind, n, nested)
    if kind is EX:  # each exchange is the ordered pairs (i, j) and (j, i)
        gap = 1 if nested else 2
        ordered = [(i, j) for i in range(n) for j in range(n)
                   if abs(i - j) >= gap]
        assert len(ordered) == 2 * len(moves)
    assert len(set(moves)) == len(moves)
    # deterministic ascending (i, j) scan order
    keys = [(m.i, m.j) for m in moves]
    assert keys == sorted(keys)


def test_br6_empty_below_minimum_size():
    assert neighborhood_size(BR6, 5) == 0
    assert enumerate_moves(BR6, 5) == ()


@pytest.mark.parametrize("kind", ["bogus", None])
@pytest.mark.parametrize("call", [
    lambda kind: enumerate_moves(kind, 5),
    lambda kind: neighborhood_size(kind, 5),
    lambda kind: apply_move((0, 1, 2, 3, 4), Move(kind, 0, 1)),
], ids=["enumerate_moves", "neighborhood_size", "apply_move"])
def test_unknown_kind_is_rejected(call, kind):
    with pytest.raises(ValueError, match="unknown neighborhood kind"):
        call(kind)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call", [enumerate_moves, neighborhood_size])
def test_length_below_one_is_rejected(call, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        call(EX, n)


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
])
def test_apply_rejects_out_of_range(kind, move):
    with pytest.raises(ValueError, match="out of range for n=5"):
        apply_move((0, 1, 2, 3, 4), move)


def _reference_apply(order, move):
    """`move` applied to `order` from the operator definitions: reverse a
    block of 2/4/5/6 positions i..j, swap i and j, or move the job at i
    to j."""
    kind, i, j = move
    block = {APEX: 2, BR4: 4, BR5: 5, BR6: 6}.get(kind)
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


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_apply_matches_reference_definitions(kind, nested):
    for n in range(1, 13):
        order = tuple(range(10, 10 + n))
        for move in enumerate_moves(kind, n, nested):
            neighbor = apply_move(order, move)
            assert neighbor == _reference_apply(order, move), move
            # The move changes exactly the span between its two positions.
            changed = [p for p in range(n) if neighbor[p] != order[p]]
            assert (changed[0], changed[-1]) == tuple(sorted(move[1:])), move


@pytest.mark.parametrize("kind", [APEX, BR4, BR5, BR6, EX])
def test_swap_and_reversal_moves_are_involutions(kind):
    order = tuple(range(9))
    for move in enumerate_moves(kind, 9):
        assert apply_move(apply_move(order, move), move) == order


def test_forward_and_backward_shifts_invert_each_other():
    order = tuple(range(8))
    for move in enumerate_moves(FSH, 8):
        shifted = apply_move(order, move)
        assert apply_move(shifted, Move(BSH, move.j, move.i)) == order
    for move in enumerate_moves(BSH, 8):
        shifted = apply_move(order, move)
        assert apply_move(shifted, Move(FSH, move.j, move.i)) == order


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("kind", [BR4, BR5, BR6, EX, FSH, BSH])
def test_non_nested_operators_exclude_adjacent_exchanges(kind, n):
    order = tuple(range(n))
    apex_results = {apply_move(order, m) for m in enumerate_moves(APEX, n)}
    for move in enumerate_moves(kind, n):
        assert apply_move(order, move) not in apex_results


@pytest.mark.parametrize("kind", [EX, FSH, BSH])
@pytest.mark.parametrize("n", range(2, 9))
def test_nested_mode_adds_exactly_the_adjacent_cases(kind, n):
    plain = set(enumerate_moves(kind, n))
    nested = set(enumerate_moves(kind, n, nested=True))
    assert plain <= nested
    added = nested - plain
    if kind is BSH:
        assert added == {Move(kind, i + 1, i) for i in range(n - 1)}
    else:
        assert added == {Move(kind, i, i + 1) for i in range(n - 1)}
    order = tuple(range(n))
    apex_results = {apply_move(order, m) for m in enumerate_moves(APEX, n)}
    assert {apply_move(order, m) for m in added} == apex_results


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", list(Neighborhood))
def test_neighbors_are_distinct_permutations(kind, n):
    order = tuple(range(n))
    neighbors = [apply_move(order, m) for m in enumerate_moves(kind, n)]
    assert len(set(neighbors)) == len(neighbors)
    for neighbor in neighbors:
        assert sorted(neighbor) == list(range(n))
        assert neighbor != order


def test_fsh_size_matches_triangular_sum():
    # size = sum_{i=1..n-2} i
    for n in range(1, 30):
        assert neighborhood_size(FSH, n) == sum(range(1, n - 1))


def test_nested_sizes():
    assert neighborhood_size(EX, 10, nested=True) == 45
    assert neighborhood_size(FSH, 10, nested=True) == 45
    assert neighborhood_size(BSH, 10, nested=True) == 45
    assert 2 * neighborhood_size(EX, 10, nested=True) == 10 * 9


def test_ex_distinct_count_by_exhaustive_pair_enumeration():
    # Unordered non-adjacent position pairs for n=100, counted directly.
    n = 100
    pairs = {
        frozenset((i, j))
        for i, j in itertools.combinations(range(n), 2)
        if j - i >= 2
    }
    assert len(pairs) == 4851
    assert {frozenset((m.i, m.j)) for m in enumerate_moves(EX, n)} == pairs
