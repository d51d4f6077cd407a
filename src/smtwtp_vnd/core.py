"""Problem data model, objective evaluation, evaluation accounting, and
the one rule by which the package draws random integers.

All job data is integer valued.  Job indices are 0-based everywhere in the
API; 1-based indices appear only in user-facing output.
"""

import random
from dataclasses import dataclass, field

Sequence = tuple[int, ...]
"""A processing order: a permutation of the job indices 0..n-1."""


@dataclass(frozen=True)
class Instance:
    """A single machine weighted tardiness instance.

    Each of the three tuples has one `int` entry per job: processing times
    are >= 1, weights are >= 1, due dates are >= 0.
    """

    processing: tuple[int, ...]
    weight: tuple[int, ...]
    due: tuple[int, ...]

    def __post_init__(self):
        for name in ("processing", "weight", "due"):
            values = tuple(getattr(self, name))
            # `bool` is a subclass of `int` but not job data.
            bad = [v for v in values if type(v) is not int]
            if bad:
                raise TypeError(
                    f"{name} values must be int, got {bad[0]!r} "
                    f"({type(bad[0]).__name__})"
                )
            object.__setattr__(self, name, values)
        n = len(self.processing)
        if n < 1:
            raise ValueError("instance must have at least one job")
        if len(self.weight) != n or len(self.due) != n:
            raise ValueError(
                f"field lengths differ: {n} processing times, "
                f"{len(self.weight)} weights, {len(self.due)} due dates"
            )
        if min(self.processing) < 1:
            raise ValueError("processing times must be >= 1")
        if min(self.weight) < 1:
            raise ValueError("weights must be >= 1")
        if min(self.due) < 0:
            raise ValueError("due dates must be >= 0")

    @property
    def n(self) -> int:
        return len(self.processing)


@dataclass(slots=True)
class EvalCounter:
    """Counts objective evaluations; the fairness currency of every run.

    The count goes up by exactly one per candidate objective determination
    and never decreases.
    """

    count: int = 0

    def tick(self) -> None:
        self.count += 1


@dataclass
class RunTrace:
    """Anytime curve of a run: (evaluations, best objective) improvement
    points, strictly increasing in evaluations, non-increasing in objective."""

    points: list[tuple[int, int]] = field(default_factory=list)

    def record_if_improved(self, evaluations: int, objective: int) -> None:
        """Append the point `(evaluations, objective)` when `objective`
        strictly improves on the last recorded best (a first point is always
        recorded)."""
        if self.points:
            last_evals, last_best = self.points[-1]
            if objective >= last_best:
                return
            if evaluations <= last_evals:
                raise ValueError(
                    f"trace already has a point at evaluation {last_evals}; "
                    f"got evaluation {evaluations}"
                )
        self.points.append((evaluations, objective))


def _require(*kinds: type, **values) -> None:
    """Raise TypeError naming the first of `values` whose type is not
    exactly one of `kinds`: `bool` is an `int` subclass but not a size, and
    a string or a number has a truth value but is not a flag.  `NoneType`
    may be one of `kinds`, for an optional value; the message does not name
    it, so an `int | None` value "must be int"."""
    for name, value in values.items():
        if type(value) not in kinds:
            names = " or ".join(kind.__name__ for kind in kinds
                                if kind is not type(None))
            raise TypeError(f"{name} must be {names}, got {value!r}")


def _require_count(**values) -> None:
    """The one rule for a size or count: `_require(int, **values)`, then
    raise ValueError naming the first of `values` below 1."""
    _require(int, **values)
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _require_seed(seed: int) -> None:
    """Raise ValueError for a seed below 0, once its type is checked:
    `random.Random(-s)` seeds as `Random(s)` does, so a negative seed would
    repeat another seed's stream."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _below(rng: random.Random, m: int) -> int:
    """One value of `rng.randrange(m)`, for `m >= 1`, from the same
    `getrandbits` calls: each try takes `m.bit_length()` bits, and a try at
    or above `m` is drawn again.  That is how `randint`, `randrange` and
    `shuffle` draw on Python 3.10-3.13, whose `random` docs promise only
    `random()`'s sequence across versions.  Every random integer of the
    package is drawn here."""
    k = m.bit_length()
    r = rng.getrandbits(k)
    while r >= m:
        r = rng.getrandbits(k)
    return r


def objective_value(instance: Instance, order: Sequence) -> int:
    """Total weighted tardiness of `order`, computed from scratch.

    Pure helper: does not touch any counter.
    """
    p, w, d = instance.processing, instance.weight, instance.due
    t = 0
    total = 0
    for j in order:
        t += p[j]
        late = t - d[j]
        if late > 0:
            total += w[j] * late
    return total

