import random

from smtwtp_vnd import (
    Instance,
    Neighborhood,
    apply_move,
    brute_force_optimum,
    certify_local_optimum,
    enumerate_moves,
)

from .conftest import exhaustive_objectives, random_instance


def test_all_due_dates_zero_reduces_to_weighted_completion():
    # With every due date 0 the objective is total completion time here;
    # shortest-processing-time order wins.  Cross-checked exhaustively.
    inst = Instance(processing=(1, 2, 3), weight=(1, 1, 1), due=(0, 0, 0))
    values = exhaustive_objectives(inst)
    assert min(values.values()) == 10
    objective, sequence = brute_force_optimum(inst)
    assert objective == 10
    assert sequence == (0, 1, 2)


def test_single_job():
    inst = Instance(processing=(7,), weight=(3,), due=(4,))
    assert brute_force_optimum(inst) == (3 * (7 - 4), (0,))
    inst = Instance(processing=(2,), weight=(3,), due=(4,))
    assert brute_force_optimum(inst) == (0, (0,))


def test_matches_exhaustive_enumeration_on_random_instances():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 7)
        inst = random_instance(rng, n)
        values = exhaustive_objectives(inst)
        best = min(values.values())
        minimizers = sorted(p for p, v in values.items() if v == best)
        assert brute_force_optimum(inst) == (best, minimizers[0])


def test_ties_resolve_to_lexicographically_smallest():
    # No job can be late: every sequence scores 0, so all n! permutations tie.
    inst = Instance(processing=(4, 2, 9), weight=(5, 1, 2), due=(99, 99, 99))
    assert brute_force_optimum(inst) == (0, (0, 1, 2))
    inst = Instance(processing=(1,) * 16, weight=(1,) * 16, due=(16,) * 16)
    assert brute_force_optimum(inst) == (0, tuple(range(16)))


def test_certify_accepts_global_optimum(tiny_instance):
    assert certify_local_optimum(
        tiny_instance, (0, 1, 2), list(Neighborhood)
    )


def test_certify_distinguishes_neighborhoods(tiny_instance):
    # (2,1,0) has objective 8; both adjacent exchanges stay at 8, but the
    # non-adjacent exchange reaches the optimum 5.
    assert certify_local_optimum(tiny_instance, (2, 1, 0), [Neighborhood.APEX])
    assert not certify_local_optimum(
        tiny_instance, (2, 1, 0), [Neighborhood.EX_NO_APEX]
    )


def test_certify_empty_kinds_is_vacuously_true(tiny_instance):
    assert certify_local_optimum(tiny_instance, (2, 1, 0), [])


def test_certify_agrees_with_exhaustive_neighbor_scan():
    rng = random.Random(777)
    kinds = list(Neighborhood)
    for _ in range(30):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        values = exhaustive_objectives(inst)
        order = tuple(rng.sample(range(n), n))
        base = values[order]
        # independent definition: no sequence within one move is better
        expected = all(
            values[apply_move(order, m)] >= base
            for kind in kinds
            for m in enumerate_moves(kind, n)
        )
        assert certify_local_optimum(inst, order, kinds) == expected


def test_global_optimum_never_beaten_by_certified_sequences():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        best, seq = brute_force_optimum(inst)
        assert certify_local_optimum(inst, seq, list(Neighborhood))
