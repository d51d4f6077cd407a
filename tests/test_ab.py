"""The A/B timing tool, run on a tiny workload against this tree itself;
no ratio is asserted."""

import json
import shutil

import pytest

from . import ab


@pytest.fixture
def tiny(monkeypatch):
    """A workload of two 8-job instances, two replications and the fault
    instance's experiment, as the only one the tool knows."""
    workload = ab.load_bench().Workload(8, (1, 61), ("random", "fixed"),
                                        "best", False, None, 2, fault_seed=2)
    monkeypatch.setattr(ab, "workloads", lambda: {"tiny": workload})


def test_ab_prints_one_json_line(tiny, capsys):
    assert ab.main(["--against", str(ab.THIS_SRC), "--workload", "tiny",
                    "--pairs", "1"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(report) == {
        "workload", "seed", "against", "pairs", "ratio_median", "ratio_q1",
        "ratio_q3", "faster", "this_s_median", "against_s_median"}
    assert (report["workload"], report["pairs"]) == ("tiny", 1)
    assert report["ratio_q1"] == report["ratio_median"] == report["ratio_q3"]
    assert report["faster"] in (0, 1)


def test_ab_exits_on_unequal_outputs(tiny, tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ab.THIS_SRC / ab.PACKAGE, other / ab.PACKAGE,
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = other / ab.PACKAGE / "harness.py"
    header = 'TRACE_HEADER = "evaluations,best_objective"'
    assert header in harness.read_text()
    harness.write_text(harness.read_text().replace(
        header, 'TRACE_HEADER = "evaluations,best"'))
    with pytest.raises(SystemExit, match="pair 1: data files differ: "
                       "experiment0/trace_i001_fixed_s1.csv"):
        ab.main(["--against", str(other), "--workload", "tiny"])
