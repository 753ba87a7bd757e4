"""Self-test of the benchmark's tracing and output checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, per workload:

* **exact counters** — two traced children with the same seed report
  identical values for every count metric, and a child with a second seed
  passes its own output check;
* **tracing changes nothing** — every traced child's fingerprint equals its
  golden;
* **attributed share** — ``trace.attributed_share`` is at least
  :data:`ATTRIBUTED_FLOOR`.

Then the **attribution** check: a busy-wait injected inside every wrapped
``BlockAllocator.allocate`` call must show up in ``kv.alloc.self_s`` and not
in the scheduler, engine, simulation or radix-tree self times.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

import run
from tracer import METRICS

#: Share of the simulate wall the program layers must account for.
ATTRIBUTED_FLOOR = 0.95

#: Busy-wait added to each allocation in the attribution check.
ALLOC_DELAY_US = 20.0

#: Workload for the attribution check: every request inserts fresh blocks.
ATTRIBUTION_WORKLOAD = "fleet-1024-shard"


def traced(workload: str, seed: int, *extra: str) -> dict:
    result = run.spawn(workload, seed, trace=True, extra=extra)
    if not result["ok"]:
        raise AssertionError(f"{workload} seed {seed}: {result['error']}")
    out = result["out"]
    error = run.fingerprint_error(run.load_goldens(), workload, out)
    if error is not None:
        raise AssertionError(error)
    if out["missing_targets"]:
        raise AssertionError(f"tracer targets not found: {out['missing_targets']}")
    return out["layers"]


def check_workload(workload: str) -> list[str]:
    problems = []
    first, second = traced(workload, 0), traced(workload, 0)
    counts = [name for name, unit in METRICS if unit == "count"]
    for name in counts:
        if first[name] != second[name]:
            problems.append(f"{workload}: {name} differs between same-seed "
                            f"runs ({first[name]} vs {second[name]})")
    other_seed = traced(workload, 1)
    for layers in (first, second, other_seed):
        share = layers["trace.attributed_share"]
        if share < ATTRIBUTED_FLOOR:
            problems.append(f"{workload}: attributed share {share:.3f} "
                            f"below {ATTRIBUTED_FLOOR}")
    return problems


def check_attribution() -> list[str]:
    base = traced(ATTRIBUTION_WORKLOAD, 0)
    slow = traced(ATTRIBUTION_WORKLOAD, 0, "--alloc-delay-us", str(ALLOC_DELAY_US))
    injected = ALLOC_DELAY_US * 1e-6 * slow["kv.tree.insertions"]
    gained = slow["kv.alloc.self_s"] - base["kv.alloc.self_s"]
    problems = []
    if not 0.8 * injected <= gained <= 1.5 * injected:
        problems.append(f"kv.alloc.self_s grew {gained:.3f}s for {injected:.3f}s "
                        "injected into BlockAllocator.allocate")
    for name in ("sched.self_s", "engine.self_s", "simulation.self_s", "kv.tree.self_s"):
        leaked = slow[name] - base[name]
        if leaked > 0.2 * injected:
            problems.append(f"{name} grew {leaked:.3f}s of the {injected:.3f}s "
                            "injected into the allocator")
    print(f"attribution: injected {injected:.3f}s, kv.alloc.self_s grew {gained:.3f}s")
    return problems


def main() -> int:
    run.check_sources()
    problems = []
    for workload in run.WORKLOADS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems.extend(found)
    problems.extend(check_attribution())
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
