"""Parallel runs must be byte-identical to serial runs, and reproducible.

These tests pin the tentpole guarantee of the ``repro.perf`` subsystem: the
experiment layer can fan out across processes without changing a single bit
of any result — sweeps, engine comparisons, ablations, and scenario suites.
They also guard the precondition that makes it possible: no module-level
global RNG reads anywhere in the library (every random choice is owned by an
explicit seed or an injected generator).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.ablation import mil_ablation
from repro.analysis.sweep import compare_engines, qps_sweep, throughput_comparison
from repro.baselines import paged_attention_spec
from repro.baselines.registry import all_engine_specs
from repro.core.engine import prefillonly_engine_spec
from repro.model.config import get_model
from repro.perf.runner import ParallelRunner
from repro.simulation.scenario import discover_scenarios, run_scenario_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"

#: A 4-worker runner forced past the core-count clamp: correctness of the
#: multi-process path must hold even on a single-core machine.
FOUR_WORKERS = dict(max_workers=4)


def _sweep_bytes(points) -> str:
    return json.dumps([point.as_dict() for point in points])


def test_qps_sweep_parallel_matches_serial(h100_setup, small_post_trace):
    spec = prefillonly_engine_spec()
    qps_values = [2.0, 6.0, 18.0]
    serial = qps_sweep(spec, h100_setup, small_post_trace, qps_values)
    parallel = qps_sweep(spec, h100_setup, small_post_trace, qps_values,
                         runner=ParallelRunner(**FOUR_WORKERS))
    assert _sweep_bytes(serial) == _sweep_bytes(parallel)


def test_two_four_worker_runs_are_identical(h100_setup, small_post_trace):
    """Reproducibility across parallel runs, not just parallel-vs-serial."""
    spec = prefillonly_engine_spec()
    qps_values = [3.0, 9.0]
    first = qps_sweep(spec, h100_setup, small_post_trace, qps_values,
                      runner=ParallelRunner(**FOUR_WORKERS))
    second = qps_sweep(spec, h100_setup, small_post_trace, qps_values,
                       runner=ParallelRunner(**FOUR_WORKERS))
    assert _sweep_bytes(first) == _sweep_bytes(second)


def test_compare_engines_parallel_matches_serial(h100_setup, small_post_trace):
    specs = all_engine_specs()
    qps_values = [4.0, 12.0]
    serial = compare_engines(specs, h100_setup, small_post_trace, qps_values)
    parallel = compare_engines(specs, h100_setup, small_post_trace, qps_values,
                               runner=ParallelRunner(**FOUR_WORKERS))
    assert list(serial) == list(parallel)  # same engines, same order
    for name in serial:
        assert _sweep_bytes(serial[name]) == _sweep_bytes(parallel[name])


def test_throughput_comparison_parallel_matches_serial(l4_setup, small_post_trace):
    specs = all_engine_specs()
    serial = throughput_comparison(specs, l4_setup, small_post_trace)
    parallel = throughput_comparison(specs, l4_setup, small_post_trace,
                                     runner=ParallelRunner(**FOUR_WORKERS))
    assert serial == parallel


def test_mil_ablation_parallel_matches_serial(a100_gpu, qwen_32b):
    from repro.baselines import chunked_prefill_spec

    kwargs = dict(
        vanilla_spec=paged_attention_spec(),
        chunked_spec=chunked_prefill_spec(),
    )
    serial = mil_ablation(qwen_32b, a100_gpu, **kwargs)
    parallel = mil_ablation(qwen_32b, a100_gpu,
                            runner=ParallelRunner(**FOUR_WORKERS), **kwargs)
    assert serial == parallel


def test_scenario_suite_parallel_matches_serial():
    paths = discover_scenarios(SCENARIO_DIR)[:3]
    serial = run_scenario_suite(paths)
    parallel = run_scenario_suite(paths, runner=ParallelRunner(**FOUR_WORKERS))

    def signature(results):
        return json.dumps([
            [result.spec.name,
             result.result.num_events,
             result.result.summary.mean_latency,
             result.result.summary.p99_latency,
             result.result.fleet.as_dict(),
             [tenant.as_dict() for tenant in result.tenants]]
            for result in results
        ])

    assert signature(serial) == signature(parallel)


def test_scenario_suite_directory_discovery():
    paths = discover_scenarios(SCENARIO_DIR)
    assert paths == sorted(paths)
    assert all(path.suffix == ".json" for path in paths)
    from repro.errors import ScenarioError

    with pytest.raises(ScenarioError):
        discover_scenarios(SCENARIO_DIR / "does-not-exist")


# --------------------------------------------------------- global-RNG guard


def test_no_module_level_global_rng_reads():
    """Every RNG in the library must be an explicitly seeded Generator.

    Per-worker seeding can only reproduce a serial run if no code path reads
    the process-global numpy / stdlib RNG state: workers would consume from
    diverged streams.  This scans the library source for the forbidden
    patterns (``np.random.<call>`` other than the Generator constructors, and
    the stdlib ``random`` module).
    """
    allowed = re.compile(
        r"np\.random\.(default_rng|Generator|SeedSequence)\b"
    )
    forbidden_np = re.compile(r"np\.random\.\w+")
    forbidden_stdlib = re.compile(r"^\s*(import random\b|from random import)")
    offenders: list[str] = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in forbidden_np.finditer(line):
                if not allowed.match(line, match.start()):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}")
            if forbidden_stdlib.search(line):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}")
    assert not offenders, "global RNG reads found:\n" + "\n".join(offenders)


def test_no_environment_variable_selects_a_code_path():
    """The library reads no environment variable.

    A run is a pure function of its arguments: an environment switch would
    select a code path that no configuration names, and that no worker of a
    parallel run is guaranteed to share.  This scans the library source, with
    the walk of the RNG guard above, for ``os.environ`` and ``os.getenv``.
    """
    forbidden = re.compile(r"\bos\.(environ|getenv)\b")
    offenders: list[str] = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if forbidden.search(line):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}")
    assert not offenders, "environment reads found:\n" + "\n".join(offenders)
