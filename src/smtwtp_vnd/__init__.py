"""Variable neighborhood descent for single machine total weighted tardiness.

Seven permutation move operators, three neighborhood selection strategies
(random, fixed order, adaptive), exact oracles for small instances, and an
experiment harness that accounts for every objective evaluation.
"""

from .core import Instance, RunTrace, Sequence, objective_value
from .engine import (
    DescentRule,
    InitialOrder,
    RunResult,
    Strategy,
    StrategyConfig,
    Termination,
    run,
)
from .harness import (
    ExperimentSpec,
    crossover_report,
    run_experiment,
)
from .neighborhoods import (
    CANONICAL_ORDER,
    Move,
    Neighborhood,
    apply_move,
    enumerate_moves,
    neighborhood_size,
)
from .oracle import brute_force_optimum, certify_local_optimum
from .orlib import (
    BenchmarkFormatError,
    BenchmarkSet,
    generate_benchmark_set,
    generate_instance,
    load_best_known,
    parse_orlib,
    serialize_orlib,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkFormatError",
    "BenchmarkSet",
    "CANONICAL_ORDER",
    "DescentRule",
    "ExperimentSpec",
    "InitialOrder",
    "Instance",
    "Move",
    "Neighborhood",
    "RunResult",
    "RunTrace",
    "Sequence",
    "Strategy",
    "StrategyConfig",
    "Termination",
    "apply_move",
    "brute_force_optimum",
    "certify_local_optimum",
    "crossover_report",
    "enumerate_moves",
    "generate_benchmark_set",
    "generate_instance",
    "load_best_known",
    "neighborhood_size",
    "objective_value",
    "parse_orlib",
    "run",
    "run_experiment",
    "serialize_orlib",
]
