"""The verdicts of ``scripts/bench_pairs.py`` on canned benchmark results.

No benchmark runs here: each run is a hand-written ``perfbench/run.py``
result object, so the gain rule, the bound rule, the failure count, the
exit status and the traced layer table are pinned without spawning a
process.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "sim_req_per_s", "unit": "req/s", "better": "higher", "bound": 0.25}


def _runs(name: str, values: list[float], *, correct: bool = True,
          failed: int = 0) -> list[dict]:
    return [{"correct": correct, "attempted": 5, "failed": failed,
             "metrics": {name: {"value": value, "unit": "-"}}} for value in values]


def _row(parent: list[float], change: list[float], metric: dict) -> dict:
    [row] = bench_pairs.summarize(
        _runs(metric["name"], parent), _runs(metric["name"], change), [metric]
    )
    return row


PARENT_RATE = [2000.0, 2100.0, 2050.0, 1950.0, 2200.0, 2150.0, 2000.0, 2080.0, 2120.0, 1990.0]


def test_a_clear_win_on_every_pair_is_a_gain():
    row = _row(PARENT_RATE, [value * 1.3 for value in PARENT_RATE], RATE)
    assert row["verdict"] == "gain"
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent"][1] == pytest.approx(2065.0)


def test_a_lower_is_better_metric_wins_when_it_falls():
    parent = [1.6, 1.5, 1.7, 1.55, 1.65, 1.6, 1.58, 1.62, 1.52, 1.68]
    assert _row(parent, [value - 0.3 for value in parent], WALL)["verdict"] == "gain"


def test_eight_wins_in_ten_is_not_a_gain():
    change = [value * 1.3 for value in PARENT_RATE]
    change[0] = change[1] = 1000.0
    row = _row(PARENT_RATE, change, RATE)
    assert row["wins"] == 8
    assert row["verdict"] == "no resolved change"


def test_nine_wins_in_ten_is_enough():
    change = [value * 1.3 for value in PARENT_RATE]
    change[0] = 1000.0
    assert _row(PARENT_RATE, change, RATE)["verdict"] == "gain"


def test_a_median_gap_inside_the_parent_iqr_is_not_a_gain():
    # Wins every pair, but by less than the parent's own spread.
    row = _row(PARENT_RATE, [value + 5.0 for value in PARENT_RATE], RATE)
    assert row["wins"] == 10
    assert row["verdict"] == "no resolved change"


def test_ties_count_for_neither_side():
    row = _row(PARENT_RATE, list(PARENT_RATE), RATE)
    assert row["wins"] == 0
    assert row["verdict"] == "no resolved change"


@pytest.mark.parametrize("metric, factor, verdict", [
    (WALL, 1.30, "worse than bound"),
    (WALL, 1.20, "no resolved change"),
    (RATE, 0.70, "worse than bound"),
    (RATE, 0.80, "no resolved change"),
])
def test_a_median_past_the_bound_is_worse_than_bound(metric, factor, verdict):
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]
    assert _row(parent, [value * factor for value in parent], metric)["verdict"] == verdict


def test_failed_runs_are_counted():
    runs = (_runs("wall_s", [1.0]) + _runs("wall_s", [1.0], correct=False)
            + _runs("wall_s", [1.0], failed=2))
    assert bench_pairs.run_failures(runs) == 2


def test_every_benchmark_metric_gets_a_row():
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = [{"correct": True, "attempted": 1, "failed": 0,
             "metrics": {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
                         for metric in metrics}}]
    rows = bench_pairs.summarize(runs, runs, metrics)
    assert [row["name"] for row in rows] == [metric["name"] for metric in metrics]
    assert all(row["verdict"] == "no resolved change" for row in rows)
    assert len(bench_pairs.format_rows(rows)) == len(metrics) + 1


def _verdict_rows(*verdicts: str) -> list[dict]:
    return [{"name": "wall_s", "verdict": verdict} for verdict in verdicts]


@pytest.mark.parametrize("verdicts, failures, status", [
    (("gain", "no resolved change"), 0, 0),
    (("gain", "worse than bound"), 0, 3),
    (("gain", "no resolved change"), 1, 1),
    (("worse than bound",), 2, 1),
])
def test_exit_status(verdicts, failures, status):
    assert bench_pairs.exit_status(_verdict_rows(*verdicts), failures) == status


def test_every_workload_gets_a_table_and_a_regression_exits_3(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    traced_calls = []

    def run_benchmark(tree, command, workload, seed, seconds, trace=False):
        if trace:
            traced_calls.append((workload, seconds))
            return {"correct": True, "attempted": 2, "failed": 0,
                    "metrics": {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
                                for metric in benchmark["per_layer"]}}
        # The change is 40% slower on fleet-chaos and unchanged elsewhere.
        slow = workload == "fleet-chaos" and tree == bench_pairs.REPO
        wall = 1.4 if slow else 1.0
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {metric["name"]: {"value": wall if metric["name"] == "wall_s"
                                             else 1.0, "unit": metric["unit"]}
                            for metric in benchmark["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    status = bench_pairs.main(["--parent", str(tmp_path), "--pairs", "2",
                               "--workload", "paper-qps", "--workload", "fleet-chaos"])
    out = capsys.readouterr().out
    assert status == 3
    assert out.count("verdict") == 2
    assert "== paper-qps" in out and "== fleet-chaos" in out
    assert out.count("worse than bound") == 1
    # Each workload also gets a layer table from six traced runs per tree.
    assert out.count("counts and ratios that differ: none") == 2
    assert traced_calls == [("paper-qps", 1)] * 12 + [("fleet-chaos", 1)] * 12


PER_LAYER = [
    {"name": "sched.self_s", "unit": "s", "better": "lower"},
    {"name": "sched.calibrations", "unit": "count", "better": "lower"},
    {"name": "sched.decisions", "unit": "count", "better": "lower"},
    {"name": "sched.calib_useful_ratio", "unit": "ratio", "better": "higher"},
    {"name": "sched.select.p99_us", "unit": "us", "better": "lower"},
    {"name": "tiers.self_s", "unit": "s", "better": "lower"},
    {"name": "obs.self_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
]


def _traced(sched: float, tiers: float, calibrations: int, ratio: float,
            overhead: float) -> dict:
    values = {"sched.self_s": sched, "sched.calibrations": calibrations,
              "sched.decisions": 807, "sched.calib_useful_ratio": ratio,
              "sched.select.p99_us": 100.0 * sched, "tiers.self_s": tiers,
              "trace.overhead_ratio": overhead}
    return {"correct": True, "attempted": 2, "failed": 0,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


def test_layer_table_on_canned_traced_runs():
    parent = [_traced(0.13, 0.39, 27398, 0.033, 1.5), _traced(0.14, 0.40, 27398, 0.033, 1.4),
              _traced(0.12, 0.38, 27398, 0.033, 1.6)]
    change = [_traced(0.06, 0.33, 3325, 0.409, 1.3), _traced(0.07, 0.41, 3325, 0.409, 1.4),
              _traced(0.15, 0.30, 3325, 0.409, 1.2)]
    assert bench_pairs.layer_table(parent, change, PER_LAYER) == [
        "layer                   parent median   change median   lower in",
        "sched.self_s            0.13            0.07            2/3",
        "tiers.self_s            0.39            0.33            2/3",
        "counts and ratios that differ:",
        "  sched.calibrations            27398 -> 3325",
        "  sched.calib_useful_ratio      0.033 -> 0.409",
    ]


def test_layer_table_with_nothing_moved():
    runs = [_traced(0.1, 0.2, 10, 0.5, 1.0)]
    assert bench_pairs.layer_table(runs, runs, PER_LAYER)[-1] == (
        "counts and ratios that differ: none")
