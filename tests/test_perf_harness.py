"""Tests for the perf-regression harness and its report driver."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.perf.harness import (
    PINNED_CASES,
    format_harness_report,
    measure_memoization,
    measure_parallel,
    run_case,
    run_harness,
    run_suite,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_pinned_suite_composition_is_stable():
    """BENCH files key on these names; renames break the perf trajectory."""
    assert list(PINNED_CASES) == [
        "single-engine", "fleet-4", "fleet-tiered", "fleet-chaos",
        "fleet-32-loop", "fleet-1024-shard", "analytic",
    ]


def test_run_case_measures_events_and_rss():
    result = run_case("fleet-4", scale="tiny")
    assert result.events > 0
    assert result.wall_s > 0
    assert result.events_per_s > 0
    assert result.peak_rss_kib > 0
    assert result.signature  # non-empty canonical JSON


def test_run_case_unknown_name():
    with pytest.raises(ConfigurationError):
        run_case("nope", scale="tiny")
    with pytest.raises(ConfigurationError):
        run_suite("huge")


def test_case_signatures_are_reproducible():
    first = run_case("single-engine", scale="tiny")
    second = run_case("single-engine", scale="tiny")
    assert first.signature == second.signature
    assert first.events == second.events


def test_measure_memoization_asserts_identity():
    report = measure_memoization("tiny")
    assert report["identical"] is True
    assert report["disabled_wall_s"] > 0
    assert report["enabled_wall_s"] > 0
    assert len(report["cases_disabled"]) == len(PINNED_CASES)


def test_measure_parallel_asserts_identity():
    report = measure_parallel("tiny", workers=2, clamp_to_cores=False)
    assert report["identical"] is True
    assert report["tasks"] > 0
    assert report["workers"] == 2


def test_run_harness_writes_bench_file(tmp_path):
    report = run_harness("unittest", scale="tiny", out_dir=tmp_path,
                         memo_comparison=False, parallel_check=False)
    path = tmp_path / "BENCH_unittest.json"
    assert path.exists()
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk["label"] == "unittest"
    assert on_disk["scale"] == "tiny"
    assert {case["name"] for case in on_disk["cases"]} == set(PINNED_CASES)
    for case in on_disk["cases"]:
        assert case["events_per_s"] > 0
        assert "signature" not in case  # signatures are in-memory only
    assert "memoization" not in on_disk
    text = format_harness_report(report)
    assert "unittest" in text and "single-engine" in text


def test_perf_report_compare_detects_regression(tmp_path):
    """The CLI compare path flags a >20% events/s drop and exits non-zero."""
    baseline = {
        "label": "base", "scale": "tiny",
        "cases": [
            {"name": "single-engine", "events_per_s": 1000.0},
            {"name": "analytic", "events_per_s": 2000.0},
        ],
    }
    regressed = {
        "label": "new", "scale": "tiny",
        "cases": [
            {"name": "single-engine", "events_per_s": 700.0},  # -30%
            {"name": "analytic", "events_per_s": 2000.0},
        ],
    }
    base_path = tmp_path / "BENCH_base.json"
    new_path = tmp_path / "BENCH_new.json"
    base_path.write_text(json.dumps(baseline))
    new_path.write_text(json.dumps(regressed))

    script = REPO_ROOT / "scripts" / "perf_report.py"

    def compare(*extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(script), "compare", str(base_path),
             str(new_path), *extra],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    failing = compare()
    assert failing.returncode == 1
    assert "REGRESSION" in failing.stdout

    tolerant = compare("--max-regression", "0.5")
    assert tolerant.returncode == 0

    # Same comparison, identical files: never a regression.
    clean = subprocess.run(
        [sys.executable, str(script), "compare", str(base_path), str(base_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert clean.returncode == 0
    assert "no regression" in clean.stdout


def test_committed_baseline_matches_schema():
    """The repo-root BENCH_pr12.json baseline stays loadable and complete."""
    path = REPO_ROOT / "BENCH_pr12.json"
    assert path.exists(), "BENCH_pr12.json baseline missing from the repo root"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["label"] == "pr12"
    assert {case["name"] for case in report["cases"]} == set(PINNED_CASES)
    assert report["memoization"]["identical"] is True
    assert report["parallel"]["identical"] is True
    # The baseline must carry profiler phases so phase_deltas attribution
    # (scripts/perf_report.py compare) has something to diff against.
    assert any(case.get("phases") for case in report["cases"])
