"""Golden corpus: SHA-256 digests of whole runs and of experiment files.

Each cell pins one run's best sequence, best objective, trace points,
evaluation total and termination reason, so any drift in evaluation order,
counting, tie breaking or stopping shows up under the cell's name.  The
experiment cell pins the bytes of `summary.csv` and `crossover.csv`.

The digests were taken before the three strategy runners were merged into
one loop and must not change unless a change says openly that it alters
evaluation counts or traces.  To print the current digests:

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import json
from functools import lru_cache

import pytest

from smtwtp_vnd import (
    DescentRule,
    ExperimentSpec,
    InitialOrder,
    Strategy,
    StrategyConfig,
    generate_benchmark_set,
    run,
    run_experiment,
    serialize_orlib,
)

FIRST = DescentRule.FIRST_IMPROVEMENT


@lru_cache(maxsize=None)
def instance(n: int, seed: int, index: int):
    """Instance `index` (1-based) of `generate_benchmark_set(n, seed)`."""
    return generate_benchmark_set(n=n, seed=seed).instances[index - 1]


def _cells():
    cells = {}
    # n = 100, capped budget.  Instance 1, (rdd, tf) = (0.2, 0.2), from EDD
    # switches neighborhoods several times (and shows adaptive's early stop);
    # instance 61, (0.6, 0.6), as given spends the budget in long descents.
    for strategy in Strategy:
        for rule in DescentRule:
            cells[f"n100-i1-{strategy.value}-{rule.value}-edd"] = (
                (100, 987, 1),
                StrategyConfig(strategy=strategy, descent_rule=rule, seed=3,
                               max_evaluations=15_000,
                               initial=InitialOrder.EDD),
            )
            cells[f"n100-i61-{strategy.value}-{rule.value}"] = (
                (100, 987, 61),
                StrategyConfig(strategy=strategy, descent_rule=rule, seed=3,
                               max_evaluations=12_000),
            )
    # n = 20, full runs to exhaustion, nesting off and on.
    for strategy in Strategy:
        for rule in DescentRule:
            for nested in (False, True):
                tag = "nested" if nested else "plain"
                cells[f"n20-{strategy.value}-{rule.value}-{tag}"] = (
                    (20, 11, 37),
                    StrategyConfig(strategy=strategy, descent_rule=rule,
                                   seed=5, nested=nested),
                )
    # Adaptive with one-candidate probes.
    for rule in DescentRule:
        cells[f"n20-adaptive-{rule.value}-probe1"] = (
            (20, 11, 88),
            StrategyConfig(strategy=Strategy.ADAPTIVE, descent_rule=rule,
                           probe_budget=1, seed=1,
                           initial=InitialOrder.RANDOM),
        )
    # Budgets that run out inside the first and a later round of probes.
    for budget in (40, 1_000):
        cells[f"n20-adaptive-best-budget{budget}"] = (
            (20, 11, 88),
            StrategyConfig(strategy=Strategy.ADAPTIVE, seed=2,
                           max_evaluations=budget),
        )
    # EDD and random initial orders.
    for initial in (InitialOrder.EDD, InitialOrder.RANDOM):
        for strategy in Strategy:
            cells[f"n20-{strategy.value}-first-{initial.value}"] = (
                (20, 11, 112),
                StrategyConfig(strategy=strategy, descent_rule=FIRST,
                               seed=9, initial=initial),
            )
    return cells


CELLS = _cells()

GOLDEN = {
    "n100-i1-adaptive-best-edd":
        "26f92ed02ade70c02d6d57f644f183e36552c14e2f8324bbbe7c803f8bcd3246",
    "n100-i1-adaptive-first-edd":
        "3b20d393864440e555e3e2b0686203b3d8186ee3d693792723eacb3eed4ba483",
    "n100-i1-fixed-best-edd":
        "b0a081a5a6ebf1fb0700df0baa549538a6179cef1acc384a4cc785db59ac9486",
    "n100-i1-fixed-first-edd":
        "830f100ef735728309802707172922443a615f265f608bfb4bd4218b1f935f88",
    "n100-i1-random-best-edd":
        "e5de92260eedff39cdb2d62d2cb496a152ff27a2a020525802f77ada6cad48f8",
    "n100-i1-random-first-edd":
        "c2cc6a07bcb7455721c34bd620e36e1f2b29886b4735549b8807ff0a8346ca4a",
    "n100-i61-adaptive-best":
        "bb7b530a76bf1ac4683213202d805314fd635c0489deaeca2f8c0a909c1879c7",
    "n100-i61-adaptive-first":
        "0ccc5b8599880dfe2c19c91a90388210decc88f75076db73f7f32138acbb0e8c",
    "n100-i61-fixed-best":
        "9f51ab978603e7920f39b10c45f29b8bd84d99d5b2548911bd2ca2971821c2ae",
    "n100-i61-fixed-first":
        "1ad91340503662ce10788c330186aef176d2c25997d938687efa39123534eb10",
    "n100-i61-random-best":
        "cb69595dafce336bb57940d7c441f175608a5e114b4571cfe7e8dc3f8ae89352",
    "n100-i61-random-first":
        "db0adec2d865ffe2e4134e06685167036b34a93794b62d18134746b48805aae7",
    "n20-adaptive-best-budget1000":
        "2cc16263665b60e88abc826c9b8cabcef198831084c4873e6d8d3e1b4d45233a",
    "n20-adaptive-best-budget40":
        "a94eb16fbc25ceb4c992b74a322e25702cbad09a6fd0e28e8cab412e9e10a9ba",
    "n20-adaptive-best-nested":
        "6462cc1349b4ebeb82070d2066ce546034a2c54e0c271e8b61938f777f64e402",
    "n20-adaptive-best-plain":
        "6462cc1349b4ebeb82070d2066ce546034a2c54e0c271e8b61938f777f64e402",
    "n20-adaptive-best-probe1":
        "5d74073d21f7105acd97833a5c40c9cf9499d725e46daa9a8ac4ba52202ce535",
    "n20-adaptive-first-edd":
        "4c0c2aa67212d42d6072b27eaa0c7d06fca4d8fc397e1f7fa6aaec60c97416dd",
    "n20-adaptive-first-nested":
        "92eaea7d4d942f6b9a7559ebb732717f6944195a49245d3a4d794caa68ada9a9",
    "n20-adaptive-first-plain":
        "d3fe8250e91e2197e0697281960a735fe8153bdfb11f516348c6a041d4061bef",
    "n20-adaptive-first-probe1":
        "c1d0bb2b702c002c8138a50d10b1f46cb868b7ddd9f2f30d6996550a12abe0fd",
    "n20-adaptive-first-random":
        "f4e4ee2af170c60c27f0f2d1e82920adeb8d2dc9a4b6b43307d838eacc3413fe",
    "n20-fixed-best-nested":
        "fdd6147d6a6c2555e6d564cdd96151527d3758080f3ae64284e61d4335240f07",
    "n20-fixed-best-plain":
        "553243e5134d0c8f3c5808c9452dc521301876b181c398dbc9b5e6c2d0ba0a99",
    "n20-fixed-first-edd":
        "85455bf0d06dd72eda13b2f4781f50ace7cd3a054dddc10e03068aab63b88950",
    "n20-fixed-first-nested":
        "e9e459cddf94ba147ede08c14443375d71362c3f9bd4ce762fee0560df8c61d0",
    "n20-fixed-first-plain":
        "c99439879ecf4431d6df89171dc96474c69a6890b1f56281224f96f762e99872",
    "n20-fixed-first-random":
        "02c59acbd6114004e0d7abf9f861a0700806047063807e99900c88c446167367",
    "n20-random-best-nested":
        "8bf6cc409ebd4d8d2c31e12495fc470e162f46de647538c489698d25ae4a8870",
    "n20-random-best-plain":
        "1fdce07b4600b28c84b05c1226e43612332df476f9cc2c67367e6d282e250690",
    "n20-random-first-edd":
        "a2329d86f1d3ff17a912b5fdfb2924171d35c241d69c9764a4eaa9bfd14e01f2",
    "n20-random-first-nested":
        "ccf2cccfc2a7b2e2445b56ce963fe213c1761bb7b48ae7f2e92263c27c050475",
    "n20-random-first-plain":
        "8e15abfbf2bcd956867229ff53f462aa9db9a8bdf0fb312a232cdf4b8f971f39",
    "n20-random-first-random":
        "aa44cf659a346d768e8285fc3d7bacce792f23caac89d08d50ec947bbf42c118",
}

GOLDEN_EXPERIMENT = {
    "summary.csv":
        "b25800cb204df434a49443e1edea466da5bf71c3579038c217405c3f9793dea1",
    "crossover.csv":
        "90c595abe1d0c268878ed576960213abc7fa1c02d3481fb70ed951df12a99eaa",
}


def run_digest(source, config) -> str:
    result = run(instance(*source), config)
    record = [
        list(result.best_sequence),
        result.best_objective,
        [list(point) for point in result.trace.points],
        result.evaluations_total,
        result.terminated_by.value,
    ]
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_digests(tmp_path) -> dict[str, str]:
    """Digests of the data files of a small three-strategy experiment: four
    n = 12 instances, two replications, a best-known file for the gaps."""
    benchmark = generate_benchmark_set(
        n=12, seed=31, rdd_values=(0.2, 1.0), tf_values=(0.2, 0.8),
        replicates=1,
    )
    instances = tmp_path / "instances.txt"
    instances.write_text(serialize_orlib(benchmark))
    best_known = tmp_path / "best.txt"
    best_known.write_text("90 6600 0 3700\n")
    output = run_experiment(ExperimentSpec(
        instance_file=instances, n=12, count=4, out_dir=tmp_path / "out",
        replications=2, seed=4, probe_budget=10, best_known_file=best_known,
    ))
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (output.summary_file, output.crossover_file)
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_run(cell):
    assert run_digest(*CELLS[cell]) == GOLDEN[cell]


def test_golden_experiment_files(tmp_path):
    assert experiment_digests(tmp_path) == GOLDEN_EXPERIMENT


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("GOLDEN = {")
    for name in sorted(CELLS):
        print(f'    "{name}":\n        "{run_digest(*CELLS[name])}",')
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"GOLDEN_EXPERIMENT = {experiment_digests(Path(tmp))!r}")
