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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.perf.runner": ("ParallelRunner", "derive_task_seeds"),
})
