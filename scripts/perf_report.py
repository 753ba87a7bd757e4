#!/usr/bin/env python
"""Serial-vs-parallel engine sweep: the ``make bench-sweep`` entry point.

``sweep`` times the engine-comparison fan-out (``compare_engines`` over every
registered engine and a four-point rate grid) serially and with N worker
processes, fails if the two results differ by a byte, and (optionally)
enforces a minimum speedup when the machine actually has the cores for it.

Run with::

    PYTHONPATH=src python scripts/perf_report.py sweep --workers 4

The repo benchmark proper lives in ``perfbench/`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro.obs.logging import LOG_LEVELS, configure, get_logger  # noqa: E402

logger = get_logger("scripts.perf_report")

#: Trace size per scale: (post-recommendation users, posts per user).
SCALES = {"tiny": (3, 4), "small": (8, 50), "paper": (20, 50)}


def measure_parallel(scale: str = "small", *, workers: int = 4) -> dict:
    """Time the engine sweep serially and with ``workers`` processes.

    ``workers`` is clamped to the machine's core count: extra processes on a
    saturated machine only add overhead, and on a single-core box the runner
    degrades to its (identical-result) serial path.
    """
    from repro.analysis.sweep import compare_engines
    from repro.baselines.registry import all_engine_specs
    from repro.hardware.cluster import get_hardware_setup
    from repro.perf.runner import ParallelRunner
    from repro.workloads.registry import get_workload

    workers = min(workers, os.cpu_count() or 1)
    users, posts = SCALES[scale]
    specs = all_engine_specs()
    setup = get_hardware_setup("h100")
    trace = get_workload("post-recommendation", num_users=users,
                         posts_per_user=posts, seed=0)
    qps_values = [2.0, 8.0, 16.0, 32.0]

    start = time.perf_counter()
    serial = compare_engines(specs, setup, trace, qps_values)
    serial_wall = time.perf_counter() - start

    runner = ParallelRunner(max_workers=workers)
    start = time.perf_counter()
    parallel = compare_engines(specs, setup, trace, qps_values, runner=runner)
    parallel_wall = time.perf_counter() - start

    def signature(sweep: dict) -> str:
        return json.dumps(
            {name: [point.as_dict() for point in points] for name, points in sweep.items()},
            sort_keys=True, separators=(",", ":"),
        )

    return {
        "workers": workers,
        "mode": runner.last_mode,
        "tasks": sum(len(points) for points in serial.values()),
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "identical": signature(serial) == signature(parallel),
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    result = measure_parallel(args.scale, workers=args.workers)
    print(f"bench-sweep ({result['tasks']} engine x rate simulations, "
          f"scale={args.scale}):")
    print(f"  serial   : {result['serial_wall_s']:.2f}s")
    print(f"  {result['workers']} worker(s): {result['parallel_wall_s']:.2f}s "
          f"({result['speedup']:.2f}x, mode={result['mode']})")
    print("  parallel results byte-identical to serial: "
          f"{result['identical']}")
    if not result["identical"]:
        logger.error("parallel sweep differs from serial sweep")
        return 1
    cores = os.cpu_count() or 1
    if args.min_speedup is not None:
        if cores < args.workers:
            print(f"  (machine has {cores} core(s) < {args.workers} workers; "
                  "speedup floor not enforced)")
        elif result["speedup"] < args.min_speedup:
            logger.error("sweep speedup %.2fx is below the %.2fx floor",
                         result["speedup"], args.min_speedup)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf_report",
        description="Serial vs parallel engine sweep",
    )
    parser.add_argument("--log-level", default="warning", choices=LOG_LEVELS,
                        help="structured logging level for diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_parser = sub.add_parser("sweep", help="serial vs parallel engine sweep")
    sweep_parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    sweep_parser.add_argument("--workers", type=int, default=4)
    sweep_parser.add_argument("--min-speedup", type=float, default=None,
                              help="fail below this speedup (only enforced when "
                                   "the machine has at least --workers cores)")
    sweep_parser.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
