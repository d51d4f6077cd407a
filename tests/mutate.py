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
NEIGHBORHOODS = "src/smtwtp_vnd/neighborhoods.py"
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
    # One exact-type rule, and one config per (strategy, seed).
    Mutant("T3 _require names NoneType", CORE,
           "kind.__name__ for kind in kinds\n"
           "                                if kind is not type(None))",
           "kind.__name__ for kind in kinds)", KILLED),
    Mutant("T4 the last field, initial, is not checked", ENGINE,
           "for name, kinds in _FIELD_TYPES:",
           "for name, kinds in _FIELD_TYPES[:-1]:", KILLED),
    Mutant("C1 every replication runs the first seed's config", HARNESS,
           "configs[s, seed]\n", "configs[s, spec.seed]\n", KILLED),
    Mutant("O1 the oracle's permutation check without its sort", ORACLE,
           "\n            or sorted(order) != list(range(n))):", "):", KILLED),
    Mutant("E1 ExperimentSpec keeps a list of indices", HARNESS,
           'object.__setattr__(self, "instance_indices",\n'
           "                               tuple(self.instance_indices))",
           "pass", KILLED),
    Mutant("E2 ExperimentSpec keeps a list of strategies", HARNESS,
           'object.__setattr__(self, "strategies", tuple(self.strategies))',
           "pass", KILLED),
    # Equal traces become hard links to one file.
    Mutant("L1 a stale temporary file is written through", HARNESS,
           "        tmp.unlink(missing_ok=True)  # a stale one may link to"
           " another file\n", "", KILLED),
    Mutant("L2 every trace links to the first one", HARNESS,
           "written.setdefault(text, path)",
           "written.setdefault(lines[0], path)", KILLED),
    Mutant("L3 a failed link writes nothing", HARNESS,
           "first = written[text] = path", "pass", KILLED),
    Mutant("L4 a failed link leaves the full file first", HARNESS,
           "first = written[text] = path", "first = path", KILLED),
    Mutant("L5 the first file is told by equality", HARNESS,
           "if first is path:", "if first == path:",
           "equivalent: each path is written once per call and setdefault"
           " returns the object it holds, so a first equal to path is path"),
    # The exact oracle: Held and Karp's subset DP.
    Mutant("P1 the oracle keeps the last optimal next job", ORACLE,
           "cost < best:", "cost <= best:", KILLED),
    Mutant("P2 the DP skips the empty set", ORACLE,
           "range(full - 1, -1, -1)", "range(full - 1, 0, -1)", KILLED),
    Mutant("P3 the DP starts at the full set", ORACLE,
           "range(full - 1, -1, -1)", "range(full, -1, -1)", KILLED),
    Mutant("P4 the oracle's limit is 15", ORACLE,
           "MAX_EXACT_N = 16", "MAX_EXACT_N = 15", KILLED),
    Mutant("P5 P(S) is built from the lowest job alone", ORACLE,
           "end[s ^ low]", "end[s & -s]", KILLED),
    Mutant("P6 a next job ends where S ends", ORACLE,
           "late = end[s | bit] - d[j]", "late = end[s] - d[j]", KILLED),
    # The generator's rdd and tf types.
    Mutant("G1 rdd and tf are not type checked", ORLIB,
           "    _require(int, float, rdd=rdd, tf=tf)  # `True` is no fraction\n",
           "", KILLED),
    Mutant("G2 an int rdd or tf is refused", ORLIB,
           "_require(int, float, rdd=rdd, tf=tf)",
           "_require(float, rdd=rdd, tf=tf)", KILLED),
    Mutant("G3 tf is not type checked", ORLIB,
           "_require(int, float, rdd=rdd, tf=tf)",
           "_require(int, float, rdd=rdd)", KILLED),
    # The random draws.
    Mutant("F1 Fisher-Yates draws below i, not i + 1", ENGINE,
           "j = _below(rng, i + 1)", "j = _below(rng, i)", KILLED),
    Mutant("F2 the random pick counts from the end", ENGINE,
           "kind = remaining[_below(", "kind = remaining[-1 - _below(",
           KILLED),
    Mutant("F3 the generator draws weights below 9, not 10", ORLIB,
           "1 + _below(rng, 10) for", "1 + _below(rng, 9) for", KILLED),
    Mutant("F4 a draw may equal its bound", CORE,
           "while r >= m:", "while r > m:", KILLED),
    Mutant("F5 the seed floor lets -1 through", CORE,
           "if seed < 0:", "if seed < -1:", KILLED),
    # The one stop rule.
    Mutant("M1 the cap falls one move late", ENGINE,
           "_capped(tick, last))\n", "_capped(tick, last + 1))\n", KILLED),
    Mutant("M2 the cap falls one move early", ENGINE,
           "_capped(tick, last))\n", "_capped(tick, last - 1))\n", KILLED),
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
    # Whole scans kept and replayed across the runs of one instance.
    Mutant("R1 the chain's key leaves out nesting", ENGINE,
           "key = (start, kind, config.nested)", "key = (start, kind)",
           KILLED),
    Mutant("R2 a scan that broke at a first improvement is kept", ENGINE,
           "if last < size or first and best is not None:",
           "if last < size:", KILLED),
    Mutant("R3 a scan that stopped short is kept", ENGINE,
           "if last < size or first and best is not None:",
           "if first and best is not None:", KILLED),
    Mutant("R4 no full refresh after a replay", ENGINE,
           "lo, hi = (0, n - 1) if replayed else (min(i, j), max(i, j))",
           "lo, hi = min(i, j), max(i, j)", KILLED),
    Mutant("R5 a replay ticks one short before a yield", ENGINE,
           "range(t + 1 - reached)", "range(t - reached)", KILLED),
    Mutant("R6 a scans dict is not tied to its instance", ENGINE,
           "if scans.setdefault(None, instance) is not instance:",
           "if False:", KILLED),
    Mutant("R7 each cell gets a dict of its own", HARNESS,
           "run(instance, config, scans)", "run(instance, config, {})",
           KILLED),
    Mutant("R8 one dict for every instance", HARNESS,
           "wall_seconds, written = {}, {}\n"
           "    for idx, group in groupby(cells.items(), key=lambda cell:"
           " cell[0][0]):\n"
           "        instance, scans = benchmark.instances[idx - 1], {}",
           "wall_seconds, written, scans = {}, {}, {}\n"
           "    for idx, group in groupby(cells.items(), key=lambda cell:"
           " cell[0][0]):\n"
           "        instance = benchmark.instances[idx - 1]", KILLED),
    # The move model.
    Mutant("N1 a reversal block never starts at the last position",
           NEIGHBORHOODS, "range(n - k + 1))", "range(n - k))", KILLED),
    Mutant("N2 EX and FSH never reach the last position", NEIGHBORHOODS,
           "for j in range(i + gap, n)", "for j in range(i + gap, n - 1)",
           KILLED),
    Mutant("N3 BSH never reaches its widest move", NEIGHBORHOODS,
           "for j in range(i - gap + 1)", "for j in range(i - gap)", KILLED),
    Mutant("N4 nesting swapped", NEIGHBORHOODS,
           "gap = 1 if nested else 2", "gap = 2 if nested else 1", KILLED),
    Mutant("N5 the nested size counts n more", NEIGHBORHOODS,
           "n * (n - 1) // 2 if nested", "n * (n + 1) // 2 if nested",
           KILLED),
    Mutant("N6 the size without nesting is wrong", NEIGHBORHOODS,
           "(n - 1) * (n - 2) // 2", "(n - 1) * (n - 3) // 2", KILLED),
    Mutant("N7 a reversal's size counts one block fewer", NEIGHBORHOODS,
           "return max(0, n - k + 1)", "return max(0, n - k)", KILLED),
    Mutant("N8 a reversal keeps its block", NEIGHBORHOODS,
           "order[i:j + 1][::-1]", "order[i:j + 1]", KILLED),
    Mutant("N9 an exchange keeps its jobs", NEIGHBORHOODS,
           "lst[i], lst[j] = lst[j], lst[i]",
           "lst[i], lst[j] = lst[i], lst[j]", KILLED),
    Mutant("N10 a shift moves the wrong way", NEIGHBORHOODS,
           "lst.insert(j, lst.pop(i))", "lst.insert(i, lst.pop(j))", KILLED),
    Mutant("N11 EX and FSH take i == j", NEIGHBORHOODS,
           "valid = 0 <= i < j < n", "valid = 0 <= i <= j < n", KILLED),
    Mutant("N12 BSH moves in descending order", NEIGHBORHOODS,
           "for j in range(i - gap + 1)",
           "for j in reversed(range(i - gap + 1))", KILLED),
    Mutant("N13 BR5 reverses blocks of 4", NEIGHBORHOODS,
           "Neighborhood.BR5: 5", "Neighborhood.BR5: 4", KILLED),
    Mutant("N14 neighborhood_size takes an unknown kind", NEIGHBORHOODS,
           "    if kind not in CANONICAL_ORDER:", "    if False:", KILLED),
    Mutant("N15 a reversal block may end at n", NEIGHBORHOODS,
           "j == i + k - 1 < n", "j == i + k - 1 <= n", KILLED),
    Mutant("N16 BSH takes i == j", NEIGHBORHOODS,
           "valid = 0 <= j < i < n", "valid = 0 <= j <= i < n", KILLED),
    Mutant("N17 a reversal may start at -1", NEIGHBORHOODS,
           "valid = 0 <= i and", "valid = -1 <= i and", KILLED),
    Mutant("N18 EX and FSH may start at -1", NEIGHBORHOODS,
           "valid = 0 <= i < j < n", "valid = -1 <= i < j < n", KILLED),
    Mutant("N19 BSH may end at -1", NEIGHBORHOODS,
           "valid = 0 <= j < i < n", "valid = -1 <= j < i < n", KILLED),
    Mutant("A1 apply_move takes any position type", NEIGHBORHOODS,
           "    if type(i) is not int or type(j) is not int:\n"
           "        _require(int, i=i, j=j)\n", "", KILLED),
    Mutant("A2 apply_move checks only i's type", NEIGHBORHOODS,
           "if type(i) is not int or type(j) is not int:",
           "if type(i) is not int:", KILLED),
    Mutant("A3 apply_move checks only j's type", NEIGHBORHOODS,
           "if type(i) is not int or type(j) is not int:",
           "if type(j) is not int:", KILLED),
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
