"""Shared fixtures and independent reference implementations.

The reference objective here is deliberately written differently from the
library (position-indexed completion times via accumulate) so that tests
cross-check rather than mirror the production code.
"""

import itertools
import random
import signal
import sys

import pytest

from smtwtp_vnd import Instance


TEST_TIME_LIMIT = 600                    # seconds


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past `TEST_TIME_LIMIT` instead of letting it
    hang, as a descent that never stops accepting would.  The error is
    raised in the code the test is running, so the traceback shows where it
    was stuck.  Skipped where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def stop(frame, event, arg):
        # A trace function that raises is removed, so this fires once.
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT} s")

    def expire(signum, frame):
        # Raise at the next line event, not here: on CPython 3.11 the alarm
        # can land on a loop's jump back, which has no line number, and
        # pytest fails to render such a traceback.
        frame.f_trace = stop
        sys.settrace(stop)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def ref_objective(instance: Instance, order) -> int:
    """From-scratch weighted tardiness, independent of the library's code."""
    completions = list(itertools.accumulate(instance.processing[j] for j in order))
    total = 0
    for pos, j in enumerate(order):
        total += instance.weight[j] * max(0, completions[pos] - instance.due[j])
    return total


def exhaustive_objectives(instance: Instance) -> dict[tuple[int, ...], int]:
    """Objective of every permutation, for instances small enough."""
    return {
        perm: ref_objective(instance, perm)
        for perm in itertools.permutations(range(instance.n))
    }


def rejection_randint(rng: random.Random, lo: int, hi: int,
                      rejected: list | None = None) -> int:
    """`rng.randint(lo, hi)` as Python 3.10-3.12 implement it: take the
    width's bit length in bits and draw again while the result is at or
    above the width.  Each rejected try goes to `rejected`, if given."""
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        if rejected is not None:
            rejected.append(r)
        r = rng.getrandbits(k)
    return lo + r


def random_instance(rng: random.Random, n: int) -> Instance:
    return Instance(
        processing=tuple(rng.randint(1, 20) for _ in range(n)),
        weight=tuple(rng.randint(1, 10) for _ in range(n)),
        due=tuple(rng.randint(0, 12 * n) for _ in range(n)),
    )


@pytest.fixture
def tiny_instance() -> Instance:
    """Three jobs; global optimum 5 at (0, 1, 2), worst value 8."""
    return Instance(processing=(3, 1, 2), weight=(2, 1, 1), due=(2, 4, 3))
