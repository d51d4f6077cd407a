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

from .core import Instance


class BenchmarkFormatError(ValueError):
    """Malformed benchmark or best-known file."""


@dataclass(frozen=True)
class BenchmarkSet:
    """Instances of one benchmark file, all with the same job count, plus an
    optional aligned list of best-known objective values."""

    instances: list[Instance]
    best_known: list[int] | None = None

    def __post_init__(self):
        sizes = {inst.n for inst in self.instances}
        if len(sizes) > 1:
            raise ValueError(f"instances have differing job counts: {sorted(sizes)}")
        if self.best_known is not None and len(self.best_known) != len(self.instances):
            raise ValueError(
                f"{len(self.best_known)} best-known values for "
                f"{len(self.instances)} instances"
            )


def parse_orlib(text: str, n: int, count: int) -> BenchmarkSet:
    """Parse `count` instances of `n` jobs each from benchmark text.

    Raises BenchmarkFormatError on a wrong token count (reporting where the
    tokens ran out) or on a non-integer token (reporting its position,
    1-based).
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    tokens = text.split()
    expected = count * 3 * n
    if len(tokens) != expected:
        kind = "truncated" if len(tokens) < expected else "oversized"
        raise BenchmarkFormatError(
            f"{kind} file: expected {expected} tokens for {count} instances "
            f"of {n} jobs, found {len(tokens)} (file ends at token {len(tokens)})"
        )
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            values.append(int(tok))
        except ValueError:
            raise BenchmarkFormatError(
                f"token {pos}: {tok!r} is not an integer"
            ) from None
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
    lines = []
    for inst in benchmark.instances:
        lines.append(" ".join(map(str, inst.processing)))
        lines.append(" ".join(map(str, inst.weight)))
        lines.append(" ".join(map(str, inst.due)))
    return "\n".join(lines) + "\n"


def load_best_known(text: str, count: int) -> list[int]:
    """Parse `count` best-known objective values (zero is a legal value)."""
    tokens = text.split()
    if len(tokens) != count:
        raise BenchmarkFormatError(
            f"expected {count} best-known values, found {len(tokens)}"
        )
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            value = int(tok)
        except ValueError:
            raise BenchmarkFormatError(
                f"token {pos}: {tok!r} is not an integer"
            ) from None
        if value < 0:
            raise BenchmarkFormatError(
                f"token {pos}: best-known value {value} is negative"
            )
        values.append(value)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < rdd <= 1:
        raise ValueError("rdd must be in (0, 1]")
    if not 0 <= tf <= 1:
        raise ValueError("tf must be in [0, 1]")
    rng = random.Random(seed)
    processing = tuple(rng.randint(1, 100) for _ in range(n))
    weight = tuple(rng.randint(1, 10) for _ in range(n))
    total = sum(processing)
    lo = math.ceil(total * (1 - tf - rdd / 2))
    hi = math.floor(total * (1 - tf + rdd / 2))
    if hi < lo:  # window narrower than one integer
        lo = hi
    due = tuple(max(0, rng.randint(lo, hi)) for _ in range(n))
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
    instances = []
    k = 0
    for rdd in rdd_values:
        for tf in tf_values:
            for _ in range(replicates):
                instances.append(generate_instance(n, seed + k, rdd, tf))
                k += 1
    return BenchmarkSet(instances)
