"""The parallel experiment runner.

Every figure, ablation, QPS sweep, and scenario in this repo decomposes into
*independent* simulation runs — one per offered rate, per engine, per ablation
variant, per scenario config — and each run is a pure function of its
arguments (every random choice is owned by an explicit seed).  That makes the
experiment layer embarrassingly parallel: :class:`ParallelRunner` fans those
runs across CPU cores with :class:`concurrent.futures.ProcessPoolExecutor`
and guarantees the results are **byte-identical** to a serial run:

* task functions are pure (no shared mutable state, no global RNG reads — a
  guard test pins this);
* results come back in task-submission order regardless of completion order
  (``Executor.map`` preserves ordering);
* a serial fallback (``max_workers <= 1``, a single task, or a pool that
  fails to start or loses a worker) executes the very same task functions in
  a plain loop.

Task functions must be picklable (defined at module top level); the wired-in
entry points (:func:`repro.analysis.sweep.qps_sweep`,
:func:`repro.analysis.ablation.mil_ablation`,
:func:`repro.simulation.scenario.run_scenario_suite`) all follow that shape.

The wired-in entry points embed every seed explicitly in each task's
arguments — that (plus purity) is what makes a 4-worker run reproduce a
serial run bit for bit.  For *new* task families that need many independent
streams from one base seed, :func:`derive_task_seeds` derives reproducible
per-task seeds with :class:`numpy.random.SeedSequence` spawning — the same
seeds regardless of worker count or scheduling order.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ParallelRunner", "derive_task_seeds"]


def _pool_probe() -> bool:
    """Trivial warm-up task: forces worker spawn before any real task runs."""
    return True


class ParallelRunner:
    """Fans independent tasks across worker processes, in order, deterministically.

    Args:
        max_workers: Worker process count.  ``None`` uses ``os.cpu_count()``
            (capped at 8 — experiment fan-outs rarely profit beyond that);
            ``0`` or ``1`` runs serially in-process.

    The runner is stateless between :meth:`map` calls and safe to reuse; each
    call stands up and tears down its own process pool.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError("max_workers must be non-negative")
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        self.max_workers = max_workers
        self._serial = max_workers <= 1
        #: How the last :meth:`map` actually executed (``"serial"`` /
        #: ``"parallel"`` / ``"fallback"``), for reports and tests.
        self.last_mode: str = "serial" if self._serial else "parallel"

    @property
    def is_serial(self) -> bool:
        """True when tasks will run in-process."""
        return self._serial

    def map(self, fn: Callable, tasks: Sequence | Iterable) -> list:
        """Run ``fn`` over ``tasks`` and return the results in task order.

        The serial and parallel paths execute the identical function on the
        identical arguments, so their results are byte-identical; the parallel
        path merely spreads the work across processes.  If the process pool
        cannot be stood up (no fork / no semaphores in sandboxed environments)
        or its workers die (OOM kill), the runner falls back to the serial
        loop.  Exceptions raised *by a task function* are never treated as a
        pool failure — they propagate to the caller directly, exactly as the
        serial loop would raise them.
        """
        tasks = list(tasks)
        if self._serial or len(tasks) <= 1:
            self.last_mode = "serial"
            return [fn(task) for task in tasks]

        # Stand the pool up on a no-op probe first, so environment failures
        # (fork refused, semaphores unavailable) surface here — before any
        # real task runs — and are never confused with task exceptions.
        executor = None
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(tasks))
            )
            executor.submit(_pool_probe).result()
        except (OSError, PermissionError, concurrent.futures.process.BrokenProcessPool):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            self.last_mode = "fallback"
            return [fn(task) for task in tasks]

        with executor:
            try:
                results = list(executor.map(fn, tasks))
            except concurrent.futures.process.BrokenProcessPool:
                # A worker died mid-run (e.g. OOM kill): degrade to the serial
                # loop, which produces the same results.  Any other exception
                # here was raised by a task and propagates to the caller.
                self.last_mode = "fallback"
                return [fn(task) for task in tasks]
        self.last_mode = "parallel"
        return results


def derive_task_seeds(base_seed: int, num_tasks: int) -> list[int]:
    """Derive ``num_tasks`` independent 32-bit seeds from one base seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so the derived seeds are
    high-quality, collision-free, and a pure function of ``(base_seed, index)``
    — independent of worker count, scheduling order, and platform.
    """
    if num_tasks < 0:
        raise ConfigurationError("num_tasks must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(num_tasks)
    return [int(child.generate_state(1)[0]) for child in children]
