"""QPS sweep harness — the machinery behind Figures 6, 7, 8, and 9.

One sweep evaluates one engine spec on one hardware setup and one workload
trace over a list of offered arrival rates (queries per second), reporting for
each rate the mean latency, the P99 latency, and the achieved throughput
(goodput).  The paper anchors the rate grid at the base throughput an engine
achieves when the whole trace arrives at once (§7.2), which
:func:`base_throughput` reproduces; :func:`paper_qps_points` then builds the
``{¼x, ½x, x, 2x, 3x, 4x}`` grid.

Every sweep point is an independent simulation (its seed and offered rate are
explicit), so :func:`qps_sweep`, :func:`compare_engines`, and
:func:`throughput_comparison` accept a
:class:`~repro.perf.runner.ParallelRunner` to fan the points across CPU
cores; results are byte-identical to the default serial run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import EngineSpec
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cluster import HardwareSetup
from repro.perf.runner import ParallelRunner
from repro.simulation.arrival import BurstArrivalProcess, PoissonArrivalProcess
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import SimulationResult, simulate
from repro.workloads.trace import WorkloadTrace

#: The multipliers of the base throughput the paper sweeps.
PAPER_QPS_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class SweepPoint:
    """One (offered QPS, measured latency/throughput) point of a sweep."""

    engine: str
    hardware: str
    workload: str
    qps: float
    mean_latency: float
    p99_latency: float
    throughput_rps: float
    cache_hit_rate: float
    num_finished: int
    num_rejected: int

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "hardware": self.hardware,
            "workload": self.workload,
            "qps": round(self.qps, 4),
            "mean_latency_s": round(self.mean_latency, 3),
            "p99_latency_s": round(self.p99_latency, 3),
            "throughput_rps": round(self.throughput_rps, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 3),
            "num_finished": self.num_finished,
            "num_rejected": self.num_rejected,
        }


def _build_system(spec: EngineSpec, setup: HardwareSetup, trace: WorkloadTrace) -> ServingSystem:
    """Build a serving system provisioned for the trace's longest request.

    Raises:
        CapacityError: if the engine cannot serve the workload's longest request
            on this hardware at all (the ✗ cells of Table 2).
    """
    return ServingSystem.for_setup(
        spec, setup, max_input_length=trace.max_request_tokens
    )


def run_once(spec: EngineSpec, setup: HardwareSetup, trace: WorkloadTrace, *,
             qps: float | None, seed: int = 0) -> SimulationResult:
    """Run one simulation: Poisson arrivals at ``qps``, or a burst when ``None``."""
    system = _build_system(spec, setup, trace)
    if qps is None:
        arrivals = BurstArrivalProcess(seed=seed)
    else:
        arrivals = PoissonArrivalProcess(rate=qps, seed=seed)
    requests = arrivals.assign(list(trace.requests))
    return simulate(system, requests)


def base_throughput(spec: EngineSpec, setup: HardwareSetup, trace: WorkloadTrace, *,
                    seed: int = 0) -> float:
    """Throughput (req/s) when the whole trace arrives at once (the paper's ``x``)."""
    result = run_once(spec, setup, trace, qps=None, seed=seed)
    return result.summary.throughput_rps


def paper_qps_points(base_qps: float,
                     multipliers: tuple[float, ...] = PAPER_QPS_MULTIPLIERS) -> list[float]:
    """The offered-QPS grid the paper evaluates, anchored at ``base_qps``."""
    if base_qps <= 0:
        raise ConfigurationError("base_qps must be positive")
    return [base_qps * multiplier for multiplier in multipliers]


def _sweep_point_task(task: tuple) -> SweepPoint:
    """Run one (engine, setup, trace, qps, seed) simulation into a SweepPoint.

    Module-level so the parallel runner can pickle it; a pure function of its
    arguments, so serial and parallel execution produce identical points.
    """
    spec, setup, trace, qps, seed = task
    result = run_once(spec, setup, trace, qps=qps, seed=seed)
    summary = result.summary
    return SweepPoint(
        engine=spec.name,
        hardware=setup.name,
        workload=trace.name,
        qps=qps,
        mean_latency=summary.mean_latency,
        p99_latency=summary.p99_latency,
        throughput_rps=summary.throughput_rps,
        cache_hit_rate=summary.cache_hit_rate,
        num_finished=summary.num_requests,
        num_rejected=summary.num_rejected,
    )


def _base_throughput_task(task: tuple) -> float:
    """Base throughput of one engine, 0.0 when the engine is infeasible."""
    spec, setup, trace, seed = task
    try:
        return base_throughput(spec, setup, trace, seed=seed)
    except CapacityError:
        return 0.0


def qps_sweep(spec: EngineSpec, setup: HardwareSetup, trace: WorkloadTrace,
              qps_values: list[float], *, seed: int = 0,
              runner: ParallelRunner | None = None) -> list[SweepPoint]:
    """Sweep one engine over the offered-QPS grid.

    Engines that cannot serve the workload at all (profile run fails) return an
    empty list, mirroring the missing curves in the paper's figures.

    Pass ``runner`` to fan the points across processes; the returned points
    are byte-identical to the serial in-process default.
    """
    try:
        _build_system(spec, setup, trace)
    except CapacityError:
        return []
    runner = runner or ParallelRunner(max_workers=1)
    tasks = [(spec, setup, trace, qps, seed) for qps in qps_values]
    return runner.map(_sweep_point_task, tasks)


def compare_engines(specs: list[EngineSpec], setup: HardwareSetup, trace: WorkloadTrace,
                    qps_values: list[float], *, seed: int = 0,
                    runner: ParallelRunner | None = None) -> dict[str, list[SweepPoint]]:
    """Sweep several engines over the same grid; infeasible engines map to [].

    With a parallel runner the fan-out is per (engine, rate) pair — finer than
    per engine, so a slow engine's points do not serialise behind each other.
    """
    runner = runner or ParallelRunner(max_workers=1)
    results: dict[str, list[SweepPoint]] = {spec.name: [] for spec in specs}
    feasible: list[EngineSpec] = []
    for spec in specs:
        try:
            _build_system(spec, setup, trace)
        except CapacityError:
            continue
        feasible.append(spec)
    tasks = [
        (spec, setup, trace, qps, seed)
        for spec in feasible for qps in qps_values
    ]
    for point in runner.map(_sweep_point_task, tasks):
        results[point.engine].append(point)
    return results


def throughput_comparison(specs: list[EngineSpec], setup: HardwareSetup, trace: WorkloadTrace, *,
                          seed: int = 0,
                          runner: ParallelRunner | None = None) -> dict[str, float]:
    """Base throughput of each engine on one setup/workload (Figure 8 bars).

    Engines that cannot serve the workload report 0.  The engines are
    independent burst simulations, so they fan across the runner's workers.
    """
    runner = runner or ParallelRunner(max_workers=1)
    tasks = [(spec, setup, trace, seed) for spec in specs]
    values = runner.map(_base_throughput_task, tasks)
    return {spec.name: value for spec, value in zip(specs, values)}
