"""Benchmark file I/O and random instance generation.

The benchmark format is the headerless OR-Library weighted tardiness
layout: whitespace-separated integers, `count * 3 * n` tokens in total,
each instance contributing n processing times, then n weights, then n due
dates.  Best-known files hold one integer per instance.  Neither format is
self-describing, so n and count are always explicit.
"""

import math
import random
from dataclasses import dataclass
from itertools import repeat

from .core import Instance, _randints, _require, _require_count


class BenchmarkFormatError(ValueError):
    """Malformed benchmark or best-known file."""


@dataclass(frozen=True)
class BenchmarkSet:
    """Instances of one benchmark file, at least one, all with the same job
    count.  They are kept as a tuple, so the set cannot change."""

    instances: tuple[Instance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.instances:
            raise ValueError("a benchmark set needs at least one instance")
        sizes = {inst.n for inst in self.instances}
        if len(sizes) != 1:
            raise ValueError(f"instances must share one job count, got {sorted(sizes)}")


def parse_int(text: str) -> int:
    """`text` as an int.  It must be an optional `-` followed by ASCII
    digits: `int()` alone would also take `1_0`, `+7`, surrounding spaces or
    non-ASCII digits.  Raises ValueError otherwise."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _parse_integers(tokens: list[str]) -> list[int]:
    """Each token as an int, by `parse_int`."""
    # One check of all tokens for the usual file, ASCII digits only.  Any
    # other (a sign, a bad token, a number past `int`'s digit limit) is read
    # token by token, for the position of the first bad one.  A regular
    # expression over the joined tokens would keep backtracking state per
    # token, about 6 MB at the peak for an n = 100 file.
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            values.append(parse_int(tok))
        except ValueError as exc:
            raise BenchmarkFormatError(f"token {pos}: {exc}") from None
    return values


def parse_orlib(text: str, n: int, count: int) -> BenchmarkSet:
    """Parse `count` instances of `n` jobs each from benchmark text.

    Raises BenchmarkFormatError on a wrong token count (reporting where the
    tokens ran out) or on a non-integer token (reporting its position,
    1-based).
    """
    _require_count(n=n, count=count)
    tokens = text.split()
    expected = count * 3 * n
    if len(tokens) != expected:
        kind = "truncated" if len(tokens) < expected else "oversized"
        raise BenchmarkFormatError(
            f"{kind} file: expected {expected} tokens for {count} instances "
            f"of {n} jobs, found {len(tokens)} (file ends at token {len(tokens)})"
        )
    values = _parse_integers(tokens)
    instances = []
    for k in range(count):
        base = k * 3 * n
        try:
            instances.append(Instance(
                processing=tuple(values[base:base + n]),
                weight=tuple(values[base + n:base + 2 * n]),
                due=tuple(values[base + 2 * n:base + 3 * n]),
            ))
        except ValueError as exc:
            raise BenchmarkFormatError(f"instance {k + 1}: {exc}") from None
    return BenchmarkSet(instances)


def serialize_orlib(benchmark: BenchmarkSet) -> str:
    """Render a BenchmarkSet back into the benchmark text layout (one line
    each for processing, weights, and due dates per instance)."""
    # Every instance of a set has the same n, so one row format serves all.
    row = " ".join(["%d"] * benchmark.instances[0].n) + "\n"
    return "".join(row % values for inst in benchmark.instances
                   for values in (inst.processing, inst.weight, inst.due))


def load_best_known(text: str, count: int) -> list[int]:
    """Parse `count` best-known objective values (zero is a legal value)."""
    _require_count(count=count)
    tokens = text.split()
    if len(tokens) != count:
        raise BenchmarkFormatError(
            f"expected {count} best-known values, found {len(tokens)}"
        )
    values = _parse_integers(tokens)
    for pos, value in enumerate(values, start=1):
        if value < 0:
            raise BenchmarkFormatError(
                f"token {pos}: best-known value {value} is negative"
            )
    return values


def generate_instance(n: int, seed: int, rdd: float, tf: float) -> Instance:
    """Generate one random instance in the classical benchmark construction.

    Processing times are uniform on [1, 100] and weights on [1, 10]; due
    dates are uniform integers on [P*(1-tf-rdd/2), P*(1-tf+rdd/2)] clamped
    to >= 0, where P is the total processing time, rdd the relative range of
    due dates and tf the tardiness factor.  Draw order is fixed (all
    processing, then all weights, then all due dates), so a given
    (n, seed, rdd, tf) always yields the same instance.
    """
    _require(int, seed=seed)
    _require_count(n=n)
    for name, value in (("rdd", rdd), ("tf", tf)):
        if type(value) not in (int, float):  # `True` is no fraction
            raise TypeError(f"{name} must be int or float, got {value!r}")
    if not 0 < rdd <= 1:
        raise ValueError("rdd must be in (0, 1]")
    if not 0 <= tf <= 1:
        raise ValueError("tf must be in [0, 1]")
    rng = random.Random(seed)
    processing = tuple(_randints(rng, 1, 100, n))
    weight = tuple(_randints(rng, 1, 10, n))
    total = sum(processing)
    lo = math.ceil(total * (1 - tf - rdd / 2))
    hi = math.floor(total * (1 - tf + rdd / 2))
    if hi < lo:  # window narrower than one integer
        lo = hi
    due = tuple(map(max, repeat(0), _randints(rng, lo, hi, n)))
    return Instance(processing, weight, due)


def generate_benchmark_set(
    n: int,
    seed: int,
    rdd_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
    tf_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
    replicates: int = 5,
) -> BenchmarkSet:
    """A full (rdd, tf) grid of generated instances, `replicates` per cell;
    the default grid gives the classical 125-instance shape.  Instance k
    uses seed `seed + k`."""
    _require(int, seed=seed)
    _require_count(n=n, replicates=replicates)
    instances = []
    k = 0
    for rdd in rdd_values:
        for tf in tf_values:
            for _ in range(replicates):
                instances.append(generate_instance(n, seed + k, rdd, tf))
                k += 1
    return BenchmarkSet(instances)
