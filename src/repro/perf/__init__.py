"""Experiment-layer performance subsystem.

PR 2 and PR 3 made the *inner* event loop fast; this package makes the
*experiment* layer fast:

* :mod:`repro.perf.runner` — a :class:`ParallelRunner` that fans independent
  simulation runs (sweep points, ablation variants, scenario configs) across
  CPU cores with a serial fallback, plus deterministic per-task seed
  derivation;
* :mod:`repro.perf.memo` — the process-wide memoization switchboard behind the
  analytic-model caches (LRU-cached latency model, memoized profile runs and
  JCT estimators, interned hash chains).  Memoization never changes results —
  every cached value is bit-identical to a fresh computation — so the switch
  exists purely for before/after measurement.

The repo benchmark that measures the simulator end to end and layer by layer
lives outside the package, in ``perfbench/`` (see ``docs/PERFORMANCE.md``).
"""

from repro.perf.memo import clear_all_caches, memo_enabled, set_memo_enabled
from repro.perf.runner import (
    ParallelRunner,
    derive_task_seeds,
    resolve_runner,
)

__all__ = [
    "ParallelRunner",
    "derive_task_seeds",
    "resolve_runner",
    "memo_enabled",
    "set_memo_enabled",
    "clear_all_caches",
]
