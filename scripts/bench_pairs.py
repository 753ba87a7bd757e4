#!/usr/bin/env python
"""Alternating parent/change benchmark pairs: the ``make bench-pairs`` entry point.

Runs the repo benchmark (``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0``, the command ``BENCHMARK.json`` declares) ``--pairs``
times in a checkout of the parent commit and in this tree, for each
``--workload`` in turn.  The parent runs first on even pairs and the change
first on odd ones, so a slow phase of a shared host does not always land on
the same side.

Per workload and end-to-end metric of ``BENCHMARK.json`` (name, unit,
direction, bound) it then prints each side's median and quartiles, the
change's wins (ties count for neither side) and one verdict:

* ``gain`` — the change wins at least nine tenths of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse than bound`` — the change's median is worse than the parent's by
  more than the metric's bound (a fraction of the parent's median);
* ``no resolved change`` — neither.

Exits 2 if a run prints no result, 1 if any run reports ``correct: false``
or a failed operation, 3 if any verdict is ``worse than bound``, and 0
otherwise.

Usage (from the repository root; ``DIR`` is a checkout of the parent commit,
e.g. from ``git worktree add DIR HEAD~1``)::

    python3 scripts/bench_pairs.py --parent DIR --workload fleet-1024-shard \\
        [--workload paper-qps ...] [--pairs 10] [--seconds 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = REPO / "BENCHMARK.json"

#: A gain needs the change to win at least this share of the pairs.
WIN_SHARE = 0.9


class PairsError(Exception):
    """A benchmark run printed no result object."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, as ``perfbench/report.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_benchmark(tree: Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict:
    """One benchmark run in ``tree``; returns its final JSON result object."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise PairsError(f"benchmark run in {tree} exited {completed.returncode}: "
                         f"{completed.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _value(result: dict, name: str) -> str:
    metric = result["metrics"].get(name)
    return "-" if metric is None else f"{metric['value']:.4g}"


def _better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(parent_runs: list[dict], change_runs: list[dict],
              metrics: list[dict]) -> list[dict]:
    """Per-metric comparison of paired runs (``parent_runs[i]`` with ``change_runs[i]``).

    Each run is a ``perfbench/run.py`` result object; ``metrics`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.  Returns one row per metric
    with both sides' ``(q1, median, q3)``, the change's wins and the verdict.
    """
    rows = []
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        pairs = [(parent["metrics"][name]["value"], change["metrics"][name]["value"])
                 for parent, change in zip(parent_runs, change_runs)
                 if name in parent["metrics"] and name in change["metrics"]]
        if not pairs:
            rows.append({"name": name, "unit": metric["unit"], "pairs": 0,
                         "verdict": "no resolved change"})
            continue
        parent_q = quartiles([parent for parent, _ in pairs])
        change_q = quartiles([change for _, change in pairs])
        wins = sum(_better(change, parent, better) for parent, change in pairs)
        parent_median, change_median = parent_q[1], change_q[1]
        if better == "lower":
            worse_than_bound = change_median > parent_median * (1 + bound)
        else:
            worse_than_bound = change_median < parent_median * (1 - bound)
        if worse_than_bound:
            verdict = "worse than bound"
        elif (wins >= WIN_SHARE * len(pairs)
              and _better(change_median, parent_median, better)
              and abs(change_median - parent_median) > parent_q[2] - parent_q[0]):
            verdict = "gain"
        else:
            verdict = "no resolved change"
        rows.append({"name": name, "unit": metric["unit"], "pairs": len(pairs),
                     "parent": parent_q, "change": change_q, "wins": wins,
                     "verdict": verdict})
    return rows


def run_failures(runs: list[dict]) -> int:
    """Runs that report ``correct: false`` or at least one failed operation."""
    return sum(1 for result in runs if not result["correct"] or result["failed"])


def exit_status(rows: list[dict], failures: int) -> int:
    """1 if any run failed, else 3 if any row is ``worse than bound``, else 0."""
    if failures:
        return 1
    return 3 if any(row["verdict"] == "worse than bound" for row in rows) else 0


def format_rows(rows: list[dict]) -> list[str]:
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<16}{'unit':<8}{'parent median [q1, q3]':<32}"
             f"{'change median [q1, q3]':<32}{'wins':<8}verdict"]
    for row in rows:
        if not row["pairs"]:
            lines.append(f"{row['name']:<16}{row['unit']:<8}{'-':<32}{'-':<32}"
                         f"{'-':<8}{row['verdict']}")
            continue
        lines.append(f"{row['name']:<16}{row['unit']:<8}{cell(row['parent']):<32}"
                     f"{cell(row['change']):<32}{row['wins']}/{row['pairs']:<6}"
                     f"{row['verdict']}")
    return lines


def run_pairs(args: argparse.Namespace, benchmark: dict,
              workload: str) -> tuple[list[dict], int]:
    """Run and print one workload's pairs; returns its rows and failed-run count."""
    metrics = benchmark["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": REPO}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    print(f"== {workload}: {args.pairs} pairs x {args.seconds:g}s, seed {args.seed}",
          flush=True)
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_benchmark(sides[side], benchmark["command"],
                                            workload, args.seed, args.seconds))
        values = ", ".join(
            f"{metric['name']} {_value(runs['parent'][-1], metric['name'])}"
            f" -> {_value(runs['change'][-1], metric['name'])}"
            for metric in metrics
        )
        print(f"pair {pair + 1} ({order[0]} first): {values}", flush=True)
    rows = summarize(runs["parent"], runs["change"], metrics)
    print("\n".join(format_rows(rows)), flush=True)
    failures = {side: run_failures(side_runs) for side, side_runs in runs.items()}
    if any(failures.values()):
        print(f"bench_pairs: {workload}: runs with failed operations: {failures}",
              file=sys.stderr)
    return rows, sum(failures.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to compare; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"--parent {args.parent} has no perfbench/run.py")
    benchmark = json.loads(BENCHMARK.read_text())
    rows: list[dict] = []
    failures = 0
    try:
        for workload in args.workload:
            workload_rows, workload_failures = run_pairs(args, benchmark, workload)
            rows += workload_rows
            failures += workload_failures
    except PairsError as exc:
        print(f"bench_pairs: error: {exc}", file=sys.stderr)
        return 2
    status = exit_status(rows, failures)
    if status == 3:
        print("bench_pairs: a metric is worse than its bound", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
