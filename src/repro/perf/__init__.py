"""Experiment-layer performance subsystem.

PR 2 and PR 3 made the *inner* event loop fast; this package makes the
*experiment* layer fast:

:mod:`repro.perf.runner` holds a :class:`ParallelRunner` that fans
independent simulation runs (sweep points, ablation variants, scenario
configs) across CPU cores with a serial fallback, plus deterministic per-task
seed derivation.

The repo benchmark that measures the simulator end to end and layer by layer
lives outside the package, in ``perfbench/`` (see ``docs/PERFORMANCE.md``).
"""

from repro.perf.runner import (
    ParallelRunner,
    derive_task_seeds,
    resolve_runner,
)

__all__ = [
    "ParallelRunner",
    "derive_task_seeds",
    "resolve_runner",
]
