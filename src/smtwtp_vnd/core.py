"""Problem data model, objective evaluation, and evaluation accounting.

All job data is integer valued.  Job indices are 0-based everywhere in the
API; 1-based indices appear only in user-facing output.
"""

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
        if any(p < 1 for p in self.processing):
            raise ValueError("processing times must be >= 1")
        if any(w < 1 for w in self.weight):
            raise ValueError("weights must be >= 1")
        if any(d < 0 for d in self.due):
            raise ValueError("due dates must be >= 0")

    @property
    def n(self) -> int:
        return len(self.processing)


class EvalCounter:
    """Counts objective evaluations; the fairness currency of every run.

    The count goes up by exactly one per candidate objective determination
    and never decreases.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = count

    def tick(self) -> int:
        self.count += 1
        return self.count

    def __repr__(self) -> str:
        return f"EvalCounter(count={self.count})"


@dataclass
class RunTrace:
    """Anytime curve of a run: (evaluations, best objective) improvement
    points, strictly increasing in evaluations, non-increasing in objective."""

    points: list[tuple[int, int]] = field(default_factory=list)
    final_evaluations: int = 0

    def record_if_improved(self, counter: EvalCounter, objective: int) -> None:
        """Append a point at the counter's current count when `objective`
        strictly improves on the last recorded best (a first point is always
        recorded)."""
        if self.points:
            last_evals, last_best = self.points[-1]
            if objective >= last_best:
                return
            if counter.count <= last_evals:
                raise ValueError(
                    f"trace already has a point at evaluation {last_evals}; "
                    f"counter is at {counter.count}"
                )
        self.points.append((counter.count, objective))

    @property
    def best_objective(self) -> int | None:
        return self.points[-1][1] if self.points else None


def is_permutation(order: Sequence, n: int) -> bool:
    """True iff `order` contains each of 0..n-1 exactly once."""
    return len(order) == n and sorted(order) == list(range(n))


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

