"""Mutation gate: every listed mutant of the package must fail tier 1,
unless it is listed as equivalent, and then it must pass.

    python -m tests.mutate

Each mutant is a file, an exact old text, a new text and a verdict:
`killed`, or `equivalent: <one-line reason>`.  Every old text must occur
exactly once in this tree, or the list is stale and nothing runs.  The
unchanged tree runs first, and must pass.  Then each mutant, one at a time,
gets a fresh temporary copy of `src`, `tests`, `bench` (without
`bench/out/`), `pyproject.toml` and `README.md`, its one replacement, and a
run of the tier-1 command with `-x` under a time limit for the whole run.
A run that fails or times out kills its mutant.  Exits non-zero when a
`killed` mutant survives, an `equivalent` one is killed, or the list is
stale.  Standard library only.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors")
# Tier 1 takes about 10 s on a 2-CPU host; the limit is for the whole run.
TIME_LIMIT = 300

ENGINE = "src/smtwtp_vnd/engine.py"
CORE = "src/smtwtp_vnd/core.py"
HARNESS = "src/smtwtp_vnd/harness.py"
ORACLE = "src/smtwtp_vnd/oracle.py"
ORLIB = "src/smtwtp_vnd/orlib.py"
KILLED = "killed"


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    verdict: str


MUTANTS = [
    # The descent and the trace.
    Mutant("D1 descend ignores max_candidates", ENGINE,
           "cap = math.inf if max_candidates is None else entry + max_candidates",
           "cap = math.inf", KILLED),
    Mutant("T1 record_if_improved without its evaluation-order guard", CORE,
           "if evaluations <= last_evals:", "if False:", KILLED),
    Mutant("T2 record_if_improved records a tie", CORE,
           "if objective >= last_best:", "if objective > last_best:", KILLED),
    Mutant("O1 the oracle's permutation check without its sort", ORACLE,
           "\n            or sorted(order) != list(range(n))):", "):", KILLED),
    Mutant("E1 ExperimentSpec keeps a list of indices", HARNESS,
           'object.__setattr__(self, "instance_indices",\n'
           "                               tuple(self.instance_indices))",
           "pass", KILLED),
    Mutant("E2 ExperimentSpec keeps a list of strategies", HARNESS,
           'object.__setattr__(self, "strategies", tuple(self.strategies))',
           "pass", KILLED),
    # The random draws.
    Mutant("F1 Fisher-Yates draws below i, not i + 1", ENGINE,
           "j = _below(rng, i + 1)", "j = _below(rng, i)", KILLED),
    Mutant("F2 the random pick counts from the end", ENGINE,
           "kind = remaining[_below(", "kind = remaining[-1 - _below(",
           KILLED),
    Mutant("F3 a bulk draw may equal the width", CORE,
           "filter(width.__gt__, tries)", "filter(width.__ge__, tries)",
           KILLED),
    Mutant("F4 a one-shot draw may equal its bound", CORE,
           "while r >= m:", "while r > m:", KILLED),
    # The one stop rule.
    Mutant("M1 the cap falls one move late", ENGINE,
           "_capped(tick, last)):", "_capped(tick, last + 1)):", KILLED),
    Mutant("M2 the cap falls one move early", ENGINE,
           "_capped(tick, last)):", "_capped(tick, last - 1)):", KILLED),
    Mutant("M3 a scan is never capped", ENGINE,
           "tick if last == size else _capped(tick, last)", "tick", KILLED),
    Mutant("M4 a stopped scan drops its best", ENGINE,
           "except _Stop:\n            pass",
           "except _Stop:\n            best = None", KILLED),
    Mutant("M5 the stop counts its move before raising", ENGINE,
           "return lambda: next(ticks, _stop)()",
           "return lambda: next(ticks, lambda: (tick(), _stop()))()", KILLED),
    # Runs stay the same; only the chained-rescan test's precondition, that
    # its descents get the counter's own tick, sees the change.
    Mutant("M6 a scan is always capped", ENGINE,
           "tick if last == size else _capped(tick, last)",
           "_capped(tick, last)", KILLED),
    Mutant("M7 EX's bound clamped at 0", ENGINE,
           "bound += delta * (tw[j] - inner_tw)\n",
           "bound += delta * (tw[j] - inner_tw)\n"
           "            if bound < 0:\n                bound = 0\n",
           "equivalent: no cost is below 0, so the inner jobs' new cost is at"
           " least max(bound, 0) and the screen still skips only non-improving"
           " moves"),
    # The run settings.
    Mutant("K1 config drops the seed override", HARNESS,
           'StrategyConfig(strategy, **settings | {"seed": seed})',
           "StrategyConfig(strategy, **settings)", KILLED),
    Mutant("K2 config drops nested", HARNESS,
           "for name in _SETTINGS}",
           'for name in _SETTINGS if name != "nested"}', KILLED),
    Mutant("K3 the strategy's type is not checked", ENGINE,
           "for f in (_strategy, *_settings)]", "for f in _settings]", KILLED),
    Mutant("K4 an empty benchmark set is taken", ORLIB,
           "if not self.instances:\n            raise ValueError(",
           "if False:\n            raise ValueError(", KILLED),
    Mutant("K5 a benchmark set keeps a list", ORLIB,
           'object.__setattr__(self, "instances", tuple(self.instances))',
           "pass", KILLED),
    Mutant("K6 the strategy is checked last", ENGINE,
           "for f in (_strategy, *_settings)]",
           "for f in (*_settings, _strategy)]", KILLED),
    Mutant("K7 config drops initial", HARNESS,
           "for name in _SETTINGS}",
           'for name in _SETTINGS if name != "initial"}', KILLED),
    Mutant("K8 config drops max_evaluations", HARNESS,
           "for name in _SETTINGS}",
           'for name in _SETTINGS if name != "max_evaluations"}', KILLED),
]


def stale() -> list[str]:
    """A line for each mutant whose verdict is malformed or whose old text
    does not occur exactly once."""
    problems = []
    ids = [m.id.split()[0] for m in MUTANTS]
    problems += [f"{id}: listed twice" for id in sorted(set(ids))
                 if ids.count(id) > 1]
    for m in MUTANTS:
        if not (m.verdict == KILLED
                or re.fullmatch(r"equivalent: \S.*", m.verdict)):
            problems.append(f"{m.id}: verdict {m.verdict!r}")
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.id}: old text found {found} times in "
                            f"{m.path}")
    return problems


def copy_tree(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_file():
            shutil.copy2(source, into / name)
            continue
        shutil.copytree(source, into / name, ignore=lambda folder, names: [
            n for n in names if n == "__pycache__"
            or (Path(folder) == ROOT / "bench" and n == "out")])


def tier1(mutant: Mutant | None) -> tuple[bool, str]:
    """Run tier 1 on a fresh copy with `mutant` applied: whether it passed,
    and the first failure it reports (or why it stopped)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            path = tree / mutant.path
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        outer = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH="src" + (os.pathsep + outer if outer else ""))
        child = subprocess.Popen(
            [sys.executable, *TIER1], cwd=tree, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            out, _ = child.communicate(timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return False, f"timed out after {TIME_LIMIT} s"
    if child.returncode == 0:
        return True, ""
    failures = [line for line in out.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return False, (failures or [f"exit code {child.returncode}"])[0]


def main() -> int:
    problems = stale()
    if problems:
        print("stale mutant list:", *problems, sep="\n  ")
        return 1
    passed, why = tier1(None)
    if not passed:
        print(f"the unchanged tree fails tier 1: {why}")
        return 1
    wrong = 0
    for m in MUTANTS:
        started = time.perf_counter()
        survived, why = tier1(m)
        expected = m.verdict != KILLED
        wrong += survived != expected
        outcome = "survived" if survived else f"killed by {why}"
        print(f"{'ok  ' if survived == expected else 'FAIL'} {m.id}: "
              f"{outcome} ({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as listed")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
