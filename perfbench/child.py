"""One benchmark operation: replay one workload in this fresh process.

Usage::

    python3 perfbench/child.py WORKLOAD SEED [--trace] [--warmup]
                               [--alloc-delay-us N]

Prints one JSON line: when the first simulate call started (absolute
``time.monotonic_ns``, so the parent can measure spawn-to-first-event), the
simulate wall time, the simulated request count, the import time, and the
output fingerprint.  With ``--trace`` the line also carries the per-layer
metrics and table (see ``tracer.py``).  ``--warmup`` only imports (it fills
the bytecode and page caches before a run is measured).
``--alloc-delay-us`` adds a busy-wait inside every
``BlockAllocator.allocate`` call, for the attribution self-test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import VARIANTS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Probe:
    """Times simulate calls from the caller's side of the entry point."""

    def __init__(self) -> None:
        self.first_event_ns: int | None = None
        self.sim_s = 0.0
        self.requests = 0
        self.last_requests = None

    def wrap(self, simulate):
        def probed(target, requests, *args, **kwargs):
            if self.first_event_ns is None:
                self.first_event_ns = time.monotonic_ns()
            self.requests += len(requests)
            self.last_requests = requests
            start = time.perf_counter()
            try:
                return simulate(target, requests, *args, **kwargs)
            finally:
                self.sim_s += time.perf_counter() - start

        return probed


def _inject_allocate_delay(delay_s: float) -> None:
    from repro.kvcache.allocator import BlockAllocator

    allocate = BlockAllocator.allocate

    def slow_allocate(self, *args, **kwargs):
        deadline = time.perf_counter() + delay_s
        while time.perf_counter() < deadline:
            pass
        return allocate(self, *args, **kwargs)

    BlockAllocator.allocate = slow_allocate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--alloc-delay-us", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    if args.warmup:
        print(json.dumps({"warmup": True}))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.alloc_delay_us > 0:
        _inject_allocate_delay(args.alloc_delay_us * 1e-6)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    probe = Probe()
    variant = args.seed % VARIANTS
    fingerprint = workloads.WORKLOADS[args.workload](variant, probe)
    if probe.first_event_ns is None:
        raise RuntimeError(f"{args.workload} made no simulate call the probe saw")
    out = {
        "variant": variant,
        "first_event_ns": probe.first_event_ns,
        "sim_s": probe.sim_s,
        "requests": probe.requests,
        "import_s": import_s,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(import_s=import_s, sim_wall_s=probe.sim_s)
        out["table"] = tracer.table(import_s)
        out["missing_targets"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
