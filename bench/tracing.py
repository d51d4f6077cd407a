"""Per-layer spans, recorded from outside the package.

Each wrapper replaces a public function under the name its caller looks it
up by: `engine` binds `objective_value`, `apply_move` and `enumerate_moves`
at import, `harness` binds `run`, `load_benchmark`, `parse_orlib`,
`write_trace_csv` and `crossover_report`, and methods are wrapped on their
class.  Spans are aggregated in memory as they close: calls, total time, and
the time covered by the wrapped spans directly inside them, so a span's self
time is its total minus that covered time.
"""

from time import perf_counter

KINDS = ("apex", "br4", "br5", "br6", "ex", "fsh", "bsh")
STRATEGIES = ("random", "fixed", "adaptive")


class Span:
    __slots__ = ("calls", "seconds", "covered")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.covered = 0.0


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: dict[str, Span] = {}
        self._stack: list[float] = []    # covered time of each open span
        self._restore = []
        self.kind_seconds = dict.fromkeys(KINDS, 0.0)
        self.kind_candidates = dict.fromkeys(KINDS, 0)
        self.descents_improved = 0

    def _wrap(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                span.calls += 1
                span.seconds += elapsed
                span.covered += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _observe_run(self, args, kwargs, result, elapsed):
        strategy = args[1].strategy.value
        self.spans.setdefault(f"run.{strategy}", Span()).seconds += elapsed

    def _observe_descend(self, args, kwargs, result, elapsed):
        kind = args[2].value
        self.kind_seconds[kind] += elapsed
        self.kind_candidates[kind] += result.evaluations
        # Every strategy passes the start objective by keyword.
        if result.objective < kwargs["start_objective"]:
            self.descents_improved += 1
        if kwargs.get("max_candidates") is not None:
            probe = self.spans.setdefault("probe", Span())
            probe.calls += 1
            probe.seconds += elapsed

    def __enter__(self):
        core, engine, harness = self.pkg.core, self.pkg.engine, self.pkg.harness
        self._wrap(engine, "objective_value", "objective_value")
        self._wrap(core.EvalCounter, "tick", "tick")
        self._wrap(core.RunTrace, "record_if_improved", "record_if_improved")
        self._wrap(engine, "apply_move", "apply_move")
        self._wrap(engine, "enumerate_moves", "enumerate_moves")
        self._wrap(engine, "descend", "descend", self._observe_descend)
        self._wrap(harness, "run", "run", self._observe_run)
        self._wrap(harness, "parse_orlib", "parse_orlib")
        self._wrap(harness, "load_benchmark", "load_benchmark")
        self._wrap(harness, "write_trace_csv", "write_trace_csv")
        self._wrap(harness, "crossover_report", "crossover_report")
        self._wrap(harness, "run_experiment", "run_experiment")
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Layer metrics of everything traced, as name -> (value, unit)."""
        s = self.spans

        def get(name):
            return s.get(name, Span())

        descend = get("descend")
        out = {
            "core.objective_value.calls": (get("objective_value").calls, "count"),
            "core.objective_value.s": (get("objective_value").seconds, "s"),
            "core.RunTrace.record_if_improved.calls":
                (get("record_if_improved").calls, "count"),
            "core.RunTrace.record_if_improved.s":
                (get("record_if_improved").seconds, "s"),
            "core.EvalCounter.tick.calls": (get("tick").calls, "count"),
            "neighborhoods.apply_move.calls": (get("apply_move").calls, "count"),
            "neighborhoods.apply_move.s": (get("apply_move").seconds, "s"),
            "neighborhoods.enumerate_moves.calls":
                (get("enumerate_moves").calls, "count"),
            "neighborhoods.enumerate_moves.s": (get("enumerate_moves").seconds, "s"),
            "engine.run.calls": (get("run").calls, "count"),
            "engine.run.self_s": (get("run").seconds - get("run").covered, "s"),
        }
        for strategy in STRATEGIES:
            out[f"engine.run.{strategy}.s"] = (get(f"run.{strategy}").seconds, "s")
        out.update({
            "engine.descend.calls": (descend.calls, "count"),
            "engine.descend.self_s": (descend.seconds - descend.covered, "s"),
            "engine.descend.candidates":
                (sum(self.kind_candidates.values()), "count"),
            "engine.descend.improved_share":
                (self.descents_improved / descend.calls if descend.calls else 0.0,
                 "ratio"),
        })
        for kind in KINDS:
            candidates = self.kind_candidates[kind]
            out[f"engine.descend.{kind}.candidates"] = (candidates, "count")
            out[f"engine.descend.{kind}.us_per_candidate"] = (
                1e6 * self.kind_seconds[kind] / candidates if candidates else 0.0,
                "us")
        experiment = get("run_experiment")
        out.update({
            "engine.probe.calls": (get("probe").calls, "count"),
            "engine.probe.s": (get("probe").seconds, "s"),
            "harness.run_experiment.self_s":
                (experiment.seconds - experiment.covered, "s"),
            "harness.write_trace_csv.calls": (get("write_trace_csv").calls, "count"),
            "harness.write_trace_csv.s": (get("write_trace_csv").seconds, "s"),
            "harness.crossover_report.calls":
                (get("crossover_report").calls, "count"),
            "harness.crossover_report.s": (get("crossover_report").seconds, "s"),
            "harness.load_benchmark.s": (get("load_benchmark").seconds, "s"),
            "orlib.parse_orlib.s": (get("parse_orlib").seconds, "s"),
        })
        return out
