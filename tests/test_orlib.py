import hashlib
import math
import random
import re
import sys

import pytest

from smtwtp_vnd import (
    BenchmarkFormatError,
    BenchmarkSet,
    Instance,
    generate_benchmark_set,
    generate_instance,
    load_best_known,
    parse_orlib,
    serialize_orlib,
)
from smtwtp_vnd.orlib import parse_int

from .conftest import rejection_randint


def test_parse_single_instance():
    benchmark = parse_orlib("3 1 2  2 1 1  2 4 3", n=3, count=1)
    assert len(benchmark.instances) == 1
    inst = benchmark.instances[0]
    assert inst.processing == (3, 1, 2)
    assert inst.weight == (2, 1, 1)
    assert inst.due == (2, 4, 3)


def test_parse_multiple_instances_and_layout_order():
    text = """
    1 2   3 4   5 6
    7 8   9 10  11 12
    """
    benchmark = parse_orlib(text, n=2, count=2)
    assert benchmark.instances[0] == Instance((1, 2), (3, 4), (5, 6))
    assert benchmark.instances[1] == Instance((7, 8), (9, 10), (11, 12))


def test_parse_truncated_file_reports_position():
    with pytest.raises(BenchmarkFormatError, match="^" + re.escape(
            "truncated file: expected 9 tokens for 1 instances of 3 jobs, "
            "found 8 (file ends at token 8)") + "$"):
        parse_orlib("3 1 2  2 1 1  2 4", n=3, count=1)


def test_parse_oversized_file_is_rejected():
    with pytest.raises(BenchmarkFormatError, match="^" + re.escape(
            "oversized file: expected 9 tokens for 1 instances of 3 jobs, "
            "found 10 (file ends at token 10)") + "$"):
        parse_orlib("3 1 2  2 1 1  2 4 3 9", n=3, count=1)


def test_parse_non_integer_token_reports_position():
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    for token in ("x", "1_0", "\u0663", "+5", "-"):
        with pytest.raises(BenchmarkFormatError,
                           match=re.escape(f"token 5: {token!r}")):
            parse_orlib(f"3 1 2  2 {token} 1  2 4 3", n=3, count=1)
    with pytest.raises(BenchmarkFormatError,
                       match="^token 2: '1_5' is not an integer$"):
        load_best_known("7 1_5", count=2)


def test_bad_token_late_in_a_large_file_is_reported_at_its_position():
    # The tokens of a file are checked in one pass; one that fails is still
    # reported as `parse_int` refuses it, at its position.
    benchmark = generate_benchmark_set(n=100, seed=1, replicates=1)
    tokens = serialize_orlib(benchmark).split()
    count = len(benchmark.instances)
    assert parse_orlib(" ".join(tokens), n=100, count=count) == benchmark
    refused = ["x", "1_0", "\u0663", "+5", "-", "--5", "1-2", "5-", "1.0"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        # Digits alone, but past the limit of `int` on this Python.
        refused.append("1" * (limit + 1))
    for token in refused:
        with pytest.raises(ValueError) as refusal:
            parse_int(token)
        for pos in (len(tokens) - 7, len(tokens)):
            bad = [*tokens[:pos - 1], token, *tokens[pos:]]
            with pytest.raises(BenchmarkFormatError) as error:
                parse_orlib(" ".join(bad), n=100, count=count)
            assert str(error.value) == f"token {pos}: {refusal.value}"


def test_parse_rejects_invalid_job_data_with_instance_number():
    # zero processing time violates the instance invariants
    with pytest.raises(BenchmarkFormatError,
                       match="^instance 1: processing times must be >= 1$"):
        parse_orlib("0 1 2  2 1 1  2 4 3", n=3, count=1)


def test_round_trip():
    benchmark = generate_benchmark_set(
        n=5, seed=11, rdd_values=(0.4, 1.0), tf_values=(0.2, 0.8),
        replicates=2,
    )
    text = serialize_orlib(benchmark)
    assert parse_orlib(text, n=5, count=8).instances == benchmark.instances


def test_round_trip_is_whitespace_insensitive():
    benchmark = parse_orlib("3 1 2  2 1 1  2 4 3", n=3, count=1)
    reparsed = parse_orlib(
        serialize_orlib(benchmark).replace("\n", "   \t "), n=3, count=1
    )
    assert reparsed.instances == benchmark.instances


def test_load_best_known():
    assert load_best_known("10 0 7", count=3) == [10, 0, 7]


def test_load_best_known_count_mismatch():
    with pytest.raises(BenchmarkFormatError,
                       match="^expected 3 best-known values, found 2$"):
        load_best_known("10 0", count=3)


def test_load_best_known_rejects_negative_but_allows_zero():
    assert load_best_known("0", count=1) == [0]
    with pytest.raises(BenchmarkFormatError,
                       match="^token 1: best-known value -4 is negative$"):
        load_best_known("-4", count=1)


def test_benchmark_set_invariants():
    a = Instance((1, 2), (1, 1), (0, 0))
    b = Instance((1,), (1,), (0,))
    with pytest.raises(ValueError, match="^" + re.escape(
            "instances must share one job count, got [1, 2]") + "$"):
        BenchmarkSet(instances=[a, b])


def test_benchmark_set_is_immutable():
    benchmark = BenchmarkSet(instances=[Instance((1,), (1,), (0,))])
    with pytest.raises(AttributeError):
        benchmark.instances = []
    with pytest.raises(AttributeError):
        benchmark.instances.clear()


def test_generate_is_deterministic():
    first = generate_instance(n=20, seed=42, rdd=0.6, tf=0.4)
    second = generate_instance(n=20, seed=42, rdd=0.6, tf=0.4)
    assert first == second
    different = generate_instance(n=20, seed=43, rdd=0.6, tf=0.4)
    assert different != first


def test_generate_single_job():
    inst = generate_instance(n=1, seed=0, rdd=0.5, tf=0.5)
    assert inst.n == 1
    assert 1 <= inst.processing[0] <= 100
    assert 1 <= inst.weight[0] <= 10
    assert inst.due[0] >= 0


def test_generate_narrow_window_takes_its_floor():
    # P = 31: the window [ceil(15.48), floor(15.52)] holds no integer.
    inst = generate_instance(n=1, seed=3, rdd=0.001, tf=0.5)
    assert inst.processing == (31,)
    assert inst.due == (15,)


def test_generate_value_ranges():
    inst = generate_instance(n=200, seed=7, rdd=0.8, tf=0.6)
    assert all(1 <= p <= 100 for p in inst.processing)
    assert all(1 <= w <= 10 for w in inst.weight)
    total = sum(inst.processing)
    hi = total * (1 - 0.6 + 0.8 / 2)
    assert all(0 <= d <= hi for d in inst.due)


def test_generate_high_tardiness_factor_pins_due_dates_near_zero():
    inst = generate_instance(n=100, seed=3, rdd=0.2, tf=1.0)
    total = sum(inst.processing)
    # window is [-rdd/2, +rdd/2] * P clamped at 0
    assert all(0 <= d <= total * 0.1 for d in inst.due)
    assert any(d == 0 for d in inst.due)


def test_generate_benchmark_set_shape():
    benchmark = generate_benchmark_set(n=4, seed=100)
    assert len(benchmark.instances) == 125
    assert all(inst.n == 4 for inst in benchmark.instances)
    again = generate_benchmark_set(n=4, seed=100)
    assert again.instances == benchmark.instances


def reference_instance(n, seed, rdd, tf, randint=rejection_randint):
    """`generate_instance` written one `randint(rng, lo, hi)` call per value,
    and the due date window's case."""
    rng = random.Random(seed)
    processing = tuple(randint(rng, 1, 100) for _ in range(n))
    weight = tuple(randint(rng, 1, 10) for _ in range(n))
    total = sum(processing)
    lo = math.ceil(total * (1 - tf - rdd / 2))
    hi = math.floor(total * (1 - tf + rdd / 2))
    if hi < lo:
        lo, case = hi, "hi < lo"
    else:
        case = "lo < 0" if lo < 0 else "window"
    due = tuple(max(0, randint(rng, lo, hi)) for _ in range(n))
    return Instance(processing, weight, due), case


# (rdd, tf) points: the classical grid's corners and middle, a window that
# starts below zero (1, 1), and windows of at most one integer, most of
# which take the `hi < lo` branch.
GRID_POINTS = [(0.2, 0.2), (0.6, 0.4), (1.0, 0.0), (1, 1), (0.2, 1.0),
               (0.001, 0.5), (1e-9, 0.3)]


@pytest.mark.parametrize("n", [*range(1, 17), 30, 100])
def test_generate_draws_what_randint_draws(n):
    cases = set()
    for seed in range(50):
        for rdd, tf in GRID_POINTS:
            expected, case = reference_instance(n, seed, rdd, tf)
            assert generate_instance(n, seed, rdd, tf) == expected
            if (3, 10) <= sys.version_info[:2] <= (3, 13):
                assert reference_instance(
                    n, seed, rdd, tf, random.Random.randint) == (expected, case)
            cases.add(case)
    assert cases == {"hi < lo", "lo < 0", "window"}


@pytest.mark.parametrize("n,digest", [
    (8, "e970a58fc0263cebd43240434b82edf03bc0d3072801bbb62cbbae0d2c2bbceb"),
    (100, "9bf8017634d9781c973165b31825622248ddc57e1ff98b56c609e35490bcfe53"),
])
def test_generated_set_text_is_pinned(n, digest):
    text = serialize_orlib(generate_benchmark_set(n, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
