"""The repo benchmark: replay one workload repeatedly, one fresh process each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-qps --seed 0 --seconds 20 --trace 0

Each operation spawns ``perfbench/child.py``, which imports the simulator,
builds the workload's inputs from the seed, replays them and prints its
timings and output fingerprint.  Operations repeat until ``--seconds`` have
passed (at least one runs).  An operation fails if the child exits non-zero
or its fingerprint differs from ``goldens.json``.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's operations: ``wall_s`` (spawn to exit), ``setup_s`` (spawn to the first
simulate call), ``sim_req_per_s`` (simulated requests over the simulate
calls' wall time) and ``peak_rss_mib`` (the child's ``ru_maxrss``).  The
three times are reported at a nominal machine speed: right before each
operation a fixed reference loop (``reference.py``) runs in its own process,
and the operation's times are scaled by ``REFERENCE_NOMINAL_S`` over the
reference's time, raised to ``REFERENCE_ELASTICITY``.  On a shared host this
cancels slowdowns that last longer than an operation; memory is reported as
measured.

With ``--trace 1`` operations alternate between plain and traced children
and the metrics are the per-layer ones from the traced children (see
``tracer.py``), as measured, plus ``trace.overhead_ratio``.  Every count
metric must repeat exactly across the traced children of a run, or the run
is marked incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("paper-qps", "fleet-chaos", "fleet-1024-shard")

#: Distinct input sets per workload; ``--seed`` selects one modulo this.
VARIANTS = 16

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mib", "MiB"),
)

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: The reference loop's time at the nominal machine speed that end-to-end
#: times are reported at (its median time on a shared 2-vCPU x86-64 VM).
REFERENCE_NOMINAL_S = 0.135

#: How strongly operation times follow the reference's time: the log-log
#: slope measured on fleet-1024-shard and fleet-chaos was 0.5-0.74.
REFERENCE_ELASTICITY = 0.7


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the simulator sources are missing)."""


def child_env() -> dict:
    """The child's environment: one thread per process."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, *, trace: bool = False,
          extra: tuple = ()) -> dict:
    """Run one child to completion; return its measurements.

    The returned dict has ``ok`` (exit status 0 and a parseable result line),
    ``wall_s``, ``setup_s``, ``sim_req_per_s``, ``peak_rss_mib``, the child's
    own output under ``out`` and, on failure, ``error``.
    """
    command = [sys.executable, str(CHILD), workload, str(seed)]
    if trace:
        command.append("--trace")
    command.extend(extra)
    spawned_ns = time.monotonic_ns()
    # One merged pipe (no deadlock reading it to EOF) and an explicit
    # wait4, which returns this child's own rusage.
    process = subprocess.Popen(
        command, cwd=REPO, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        output = process.stdout.read()
        process.stdout.close()
        _, status, rusage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        watchdog.cancel()
    wall_s = (time.monotonic_ns() - spawned_ns) / 1e9
    process.returncode = os.waitstatus_to_exitcode(status)
    lines = output.strip().splitlines()
    if process.returncode != 0:
        return {"ok": False, "error": lines[-1] if lines else
                f"exit status {process.returncode}"}
    try:
        out = json.loads(next(line for line in reversed(lines) if line.startswith("{")))
    except (StopIteration, json.JSONDecodeError):
        return {"ok": False, "error": "child printed no result line"}
    if "warmup" in out:
        return {"ok": True, "out": out}
    return {
        "ok": True,
        "out": out,
        "wall_s": wall_s,
        "setup_s": (out["first_event_ns"] - spawned_ns) / 1e9,
        "sim_req_per_s": out["requests"] / out["sim_s"],
        "peak_rss_mib": rusage.ru_maxrss / 1024.0,
    }


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        return {}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def fingerprint_error(goldens: dict, workload: str, out: dict) -> str | None:
    """Why the child's fingerprint does not match its golden, or None."""
    expected = goldens.get(workload, {}).get(str(out["variant"]))
    if expected is None:
        return f"no golden fingerprint for {workload} variant {out['variant']}"
    if json.dumps(expected, sort_keys=True) != json.dumps(out["fingerprint"], sort_keys=True):
        return f"fingerprint of {workload} variant {out['variant']} differs from its golden"
    return None


def check_sources() -> None:
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"simulator sources not found under {REPO / 'src'}")


def reference_seconds() -> float:
    """How long ``reference.py``'s fixed loop takes right now, in a fresh process."""
    try:
        done = subprocess.run(
            [sys.executable, str(REFERENCE)], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, IndexError, ValueError) as exc:
        raise BenchError(f"reference loop failed: {exc}") from None


def at_nominal_speed(op: dict, reference_s: float) -> dict:
    """Scale an operation's times to the speed at which the reference takes
    :data:`REFERENCE_NOMINAL_S`."""
    scale = (REFERENCE_NOMINAL_S / reference_s) ** REFERENCE_ELASTICITY
    return {**op, "wall_s": op["wall_s"] * scale, "setup_s": op["setup_s"] * scale,
            "sim_req_per_s": op["sim_req_per_s"] / scale}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed by :func:`main`."""
    check_sources()
    goldens = load_goldens()
    warm = spawn(workload, seed, extra=("--warmup",))
    if not warm["ok"]:
        raise BenchError(f"warm-up child failed: {warm['error']}")
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    min_operations = 2 if trace else 1
    deadline = time.monotonic() + seconds
    while attempted < min_operations or time.monotonic() < deadline:
        use_trace = trace and attempted % 2 == 1
        reference_s = None if trace else reference_seconds()
        op = spawn(workload, seed, trace=use_trace)
        attempted += 1
        error = op.get("error") if not op["ok"] else fingerprint_error(
            goldens, workload, op["out"])
        if error is not None:
            failed += 1
            print(f"operation {attempted} failed: {error}", file=sys.stderr)
            continue
        if use_trace:
            traced.append(op)
        else:
            plain.append(op if trace else at_nominal_speed(op, reference_s))
    if trace:
        metrics, mismatched = _layer_metrics(plain, traced)
        failed += mismatched
    else:
        metrics = {
            name: {"value": statistics.median(op[name] for op in plain), "unit": unit}
            for name, unit in END_TO_END
        } if plain else {}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, int]:
    """Per-layer metrics from the traced children; counts must repeat exactly.

    Returns the metrics and the number of traced children whose count
    metrics differ from the first traced child's.
    """
    from tracer import METRICS

    if not traced:
        return {}, 0
    layers = [run["out"]["layers"] for run in traced]
    counts = [name for name, unit in METRICS if unit == "count"]
    mismatched = sum(
        1 for other in layers[1:]
        if any(other[name] != layers[0][name] for name in counts)
    )
    metrics = {}
    for name, unit in METRICS:
        if name == "trace.overhead_ratio":
            untraced = statistics.median(run["out"]["sim_s"] for run in plain) if plain else 0.0
            value = (statistics.median(run["out"]["sim_s"] for run in traced) / untraced
                     if untraced else 0.0)
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, mismatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
