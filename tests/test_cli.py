import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import smtwtp_vnd
from smtwtp_vnd import (
    DescentRule,
    ExperimentSpec,
    InitialOrder,
    Strategy,
    StrategyConfig,
    cli,
)
from smtwtp_vnd.cli import build_parser, main
from smtwtp_vnd.engine import RunSettings

TINY_TEXT = "3 1 2  2 1 1  2 4 3"


def write_instances(tmp_path):
    path = tmp_path / "instances.txt"
    path.write_text(TINY_TEXT)
    return path


def base_args(tmp_path):
    return [
        "--instances", str(write_instances(tmp_path)),
        "--n", "3",
        "--count", "1",
        "--out", str(tmp_path / "out"),
    ]


def test_cli_runs_tiny_experiment(tmp_path, capsys):
    code = main(base_args(tmp_path) + ["--strategy", "fixed"])
    assert code == 0
    captured = capsys.readouterr()
    assert "instance" in captured.out
    assert "fixed" in captured.out
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "trace_i001_fixed_s0.csv").exists()


def test_cli_all_strategies_and_flags(tmp_path):
    code = main(base_args(tmp_path) + [
        "--strategy", "all",
        "--descent", "first",
        "--probe-budget", "10",
        "--seed", "3",
        "--replications", "2",
        "--nested", "on",
        "--max-evals", "5000",
        "--initial", "edd",
        "--index", "1",
    ])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "crossover.csv").exists()
    # 1 instance x 3 strategies x 2 replications
    assert len(list(out.glob("trace_*.csv"))) == 6


@pytest.mark.parametrize("flags", [
    ["--strategy", "fixed"], [], ["--replications", "2"]])
def test_cli_counts_the_files_it_wrote(tmp_path, capsys, flags):
    assert main(base_args(tmp_path) + flags) == 0
    out = tmp_path / "out"
    written = len(list(out.iterdir()))
    assert f"\nwrote {written} files to {out}\n" in capsys.readouterr().out


def test_cli_index_list_selects_instances(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text(TINY_TEXT + "  " + TINY_TEXT)
    code = main([
        "--instances", str(path), "--n", "3", "--count", "2",
        "--index", "2,1", "--strategy", "fixed",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    traces = sorted(p.name for p in (tmp_path / "out").glob("trace_*.csv"))
    assert traces == ["trace_i001_fixed_s0.csv", "trace_i002_fixed_s0.csv"]


def spec_of(argv, monkeypatch):
    """The spec that `main(argv)` hands to `run_experiment`, which is not
    run: its stand-in raises OSError, so `main` returns 1."""
    specs = []

    def capture(spec):
        specs.append(spec)
        raise OSError("not run")

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert main(argv) == 1
    [spec] = specs
    return spec


def test_cli_flags_map_onto_spec_fields(monkeypatch):
    required = ["--instances", "in.txt", "--n", "3", "--count", "2",
                "--out", "out"]
    given = dict(instance_file=Path("in.txt"), n=3, count=2,
                 out_dir=Path("out"))
    assert spec_of(required, monkeypatch) == ExperimentSpec(**given)
    assert spec_of(required + [
        "--index", "2,1", "--strategy", "fixed", "--descent", "first",
        "--probe-budget", "10", "--seed", "3", "--replications", "2",
        "--nested", "on", "--max-evals", "5000", "--initial", "edd",
        "--best-known", "best.txt",
    ], monkeypatch) == ExperimentSpec(
        **given, instance_indices=(2, 1), strategies=(Strategy.FIXED,),
        descent_rule=DescentRule.FIRST_IMPROVEMENT, probe_budget=10, seed=3,
        replications=2, nested=True, max_evaluations=5000,
        initial=InitialOrder.EDD, best_known_file=Path("best.txt"))
    assert spec_of(required + [
        "--strategy", "all", "--index", "all", "--nested", "off",
    ], monkeypatch) == ExperimentSpec(
        **given, instance_indices=None, strategies=tuple(Strategy),
        nested=False)


def test_every_run_setting_has_one_flag():
    dests = Counter(action.dest for action in build_parser()._actions)
    assert {f.name: dests[f.name] for f in fields(RunSettings)} == {
        f.name: 1 for f in fields(RunSettings)}


@pytest.mark.parametrize("seed", [0, 7])
def test_spec_run_defaults_are_the_engine_defaults(seed):
    spec = ExperimentSpec(instance_file=Path("in.txt"), n=3, count=1,
                          out_dir=Path("out"))
    for strategy in Strategy:
        assert spec.config(strategy, seed) == StrategyConfig(strategy,
                                                             seed=seed)


def test_spec_config_carries_every_run_setting():
    settings = dict(descent_rule=DescentRule.FIRST_IMPROVEMENT,
                    probe_budget=7, seed=3, nested=True, max_evaluations=50,
                    initial=InitialOrder.EDD)
    assert [f.name for f in fields(RunSettings)
            if settings[f.name] != f.default] == list(settings)
    spec = ExperimentSpec(instance_file=Path("in.txt"), n=3, count=1,
                          out_dir=Path("out"), **settings)
    for strategy in Strategy:
        assert spec.config(strategy, 9) == StrategyConfig(
            strategy, **settings | {"seed": 9})


def refused(named, *args):
    """A usage error for `args`, whose message includes `named`."""
    return pytest.param(list(args), named, id=" ".join(args))


COUNT_FIELDS = {"--n": "n", "--count": "count",
                "--replications": "replications",
                "--probe-budget": "probe_budget",
                "--max-evals": "max_evaluations"}


@pytest.mark.parametrize("args, named", [
    refused("argument --strategy: invalid choice: 'simulated-annealing'",
            "--strategy", "simulated-annealing"),
    *(refused(f"instance indices [{i}] outside [1, 1]", "--index", str(i))
      for i in (0, 2, 126)),
    refused("instance indices [2] repeated",
            "--count", "2", "--index", "2,1,2"),
    *(refused(f"{field} must be >= 1, got 0", flag, "0")
      for flag, field in COUNT_FIELDS.items()),
    # `1_0` is not 10: integer flags take the benchmark files' token rule.
    *(refused(f"argument {flag}: invalid parse_int value: '1_0'", flag, "1_0")
      for flag in COUNT_FIELDS),
    # int() reads 1_0 as 10, Arabic-Indic digits as ASCII ones and +1 as 1;
    # an empty part is no index either.
    *(refused("argument --index: must be 'all' or comma-separated integers, "
              f"got {arg!r}", "--index", arg)
      for arg in ("1,two", ",", "1_0", "\u0663", "\u0661", "+1", "1,,2", "1,",
                  ",1")),
])
def test_cli_refusal_is_a_usage_error(tmp_path, capsys, args, named):
    with pytest.raises(SystemExit) as excinfo:
        main(base_args(tmp_path) + args)
    assert excinfo.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_output_of_another_run(tmp_path, capsys):
    assert main(base_args(tmp_path)) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(base_args(tmp_path) + ["--strategy", "fixed"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "crossover.csv" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_unparseable_file_fails_with_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3")
    code = main([
        "--instances", str(bad), "--n", "3", "--count", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_fails_cleanly(tmp_path, capsys):
    code = main([
        "--instances", str(tmp_path / "nope.txt"), "--n", "3", "--count", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_best_known_gap_in_summary(tmp_path):
    best = tmp_path / "best.txt"
    best.write_text("5")
    code = main(base_args(tmp_path) + [
        "--strategy", "fixed", "--best-known", str(best),
    ])
    assert code == 0
    summary = (tmp_path / "out" / "summary.csv").read_text()
    assert summary.splitlines()[1].endswith(",0.0000")


def test_cli_module_invocation(tmp_path):
    instances = write_instances(tmp_path)
    # The child imports the package from where this process found it, also
    # when pytest put it on the path rather than PYTHONPATH.
    package_root = str(Path(smtwtp_vnd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "smtwtp_vnd.cli",
         "--instances", str(instances), "--n", "3", "--count", "1",
         "--strategy", "adaptive", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.csv").exists()
