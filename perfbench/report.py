"""Print the benchmark report: end-to-end metrics, then per-layer tables.

Usage (from the repository root)::

    python3 perfbench/report.py [--runs 5] [--seconds 20] [--traced 3]
                                [--workload NAME ...]

For each workload, ``--runs`` benchmark runs (seeds 0, 1, ...) of
``--seconds`` each give every end-to-end metric's median and quartiles
across runs, with the operations attempted and failed (``--runs 0`` skips
them).  Then ``--traced`` traced children per workload (seed 0) give the
per-layer table: calls, self seconds, share of the traced child's time from
the start of its imports, and per-call p99 of self time, each the median
over the children.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(workload: str, runs: int, seconds: float) -> list[str]:
    results = [run.measure(workload, seed, seconds, False) for seed in range(runs)]
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    lines = [f"== {workload}: {runs} runs x {seconds:g}s, "
             f"{attempted} operations, {failed} failed",
             f"{'metric':<16}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}"]
    for name, unit in run.END_TO_END:
        values = [result["metrics"][name]["value"] for result in results
                  if name in result["metrics"]]
        if not values:
            lines.append(f"{name:<16}{unit:<8}{'-':>12}")
            continue
        q1, median, q3 = quartiles(values)
        lines.append(f"{name:<16}{unit:<8}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}")
    return lines


def layer_table(workload: str, children: int) -> list[str]:
    tables = []
    for _ in range(children):
        result = run.spawn(workload, 0, trace=True)
        if not result["ok"]:
            raise run.BenchError(f"traced {workload} child failed: {result['error']}")
        tables.append(result["out"]["table"])
    lines = [f"-- {workload}: per-layer, median of {children} traced children (seed 0)",
             f"{'layer':<12}{'calls':>10}{'self_s':>10}{'share':>8}{'p99_us':>11}"]
    for index, row in enumerate(tables[0]):
        rows = [table[index] for table in tables]
        median = {key: statistics.median(r[key] for r in rows)
                  for key in ("self_s", "share", "p99_us")}
        lines.append(f"{row['layer']:<12}{row['calls']:>10}{median['self_s']:>10.4f}"
                     f"{median['share']:>8.1%}{median['p99_us']:>11.1f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    workloads = args.workload or run.WORKLOADS
    try:
        for workload in workloads if args.runs > 0 else ():
            print("\n".join(end_to_end(workload, args.runs, args.seconds)), flush=True)
        for workload in workloads:
            print("\n".join(layer_table(workload, args.traced)), flush=True)
    except run.BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
