"""Unit tests for the parallel experiment runner (`repro.perf.runner`)."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.perf.runner import ParallelRunner, derive_task_seeds


def _square(value: int) -> int:
    return value * value


def test_serial_runner_preserves_order():
    runner = ParallelRunner(max_workers=1)
    assert runner.is_serial
    assert runner.map(_square, range(8)) == [v * v for v in range(8)]
    assert runner.last_mode == "serial"


def test_parallel_runner_preserves_order():
    runner = ParallelRunner(max_workers=2)
    results = runner.map(_square, range(16))
    assert results == [v * v for v in range(16)]
    assert runner.last_mode in ("parallel", "fallback")


def test_parallel_and_serial_results_identical():
    tasks = list(range(20))
    serial = ParallelRunner(max_workers=1).map(_square, tasks)
    parallel = ParallelRunner(max_workers=4).map(_square, tasks)
    assert serial == parallel


def test_single_task_runs_in_process():
    runner = ParallelRunner(max_workers=4)
    assert runner.map(_square, [3]) == [9]
    assert runner.last_mode == "serial"  # one task never pays for a pool


def test_zero_workers_means_serial():
    assert ParallelRunner(max_workers=0).is_serial


def test_negative_workers_rejected():
    with pytest.raises(ConfigurationError):
        ParallelRunner(max_workers=-1)


def _raise_oserror(value: int) -> int:
    if value == 3:
        raise FileNotFoundError(f"task {value} failed")
    return value


def test_task_exceptions_propagate_instead_of_falling_back():
    """An OSError raised *by a task* is not a pool failure: no serial rerun."""
    runner = ParallelRunner(max_workers=2)
    with pytest.raises(FileNotFoundError):
        runner.map(_raise_oserror, range(6))
    assert runner.last_mode != "fallback"


def test_derive_task_seeds_deterministic_and_distinct():
    seeds_a = derive_task_seeds(7, 32)
    seeds_b = derive_task_seeds(7, 32)
    assert seeds_a == seeds_b
    assert len(set(seeds_a)) == 32
    # A different base seed produces a different (still deterministic) family.
    assert derive_task_seeds(8, 32) != seeds_a
    # Prefix stability: the first k seeds do not depend on the task count.
    assert derive_task_seeds(7, 8) == seeds_a[:8]
    with pytest.raises(ConfigurationError):
        derive_task_seeds(0, -1)


def test_default_worker_count_is_bounded():
    runner = ParallelRunner()
    assert 1 <= runner.max_workers <= min(os.cpu_count() or 1, 8)
