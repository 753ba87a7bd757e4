"""The tracing subsystem's two hard identity contracts, pinned end to end.

1. **Disabled is the seed** — with observability off (the default), every
   cookbook scenario reproduces the golden fingerprints captured before the
   subsystem landed (``tests/golden/cookbook_fingerprints.json``), at one
   shard and at four.  The null-recorder hooks must be invisible.
2. **Enabled is read-only and deterministic** — turning recording on changes
   no simulation result, and the exports themselves are byte-reproducible:
   same seed twice, and sharded vs unsharded at any worker count, all
   serialise to identical bytes.  A recorded fleet runs the fleet loop at
   every shard count (``result.sharding["mode"] == "lockstep"``), so the
   loop is the only producer of a recording.

To regenerate the golden file after an *intentional* simulation change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_obs_identity.py -q
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.obs.exporters import export_chrome_trace, export_prometheus, export_spans
from repro.simulation.invariants import scenario_fingerprint
from repro.simulation.scenario import (
    _build_fleet,
    build_mix,
    load_scenario,
    run_scenario,
)
from repro.simulation.simulator import simulate_fleet
from repro.spec.models import ObservabilitySpec

REPO = Path(__file__).parent.parent
SCENARIOS = REPO / "examples" / "scenarios"
GOLDEN = REPO / "tests" / "golden" / "cookbook_fingerprints.json"

STEMS = sorted(path.stem for path in SCENARIOS.glob("*.json"))


def _fingerprint(spec):
    """JSON-normalised fingerprint, as the golden file stores it."""
    return json.loads(json.dumps(scenario_fingerprint(run_scenario(spec))))


def _spec(stem: str, *, shards: int = 1, enabled: bool = False):
    spec = load_scenario(SCENARIOS / f"{stem}.json")
    spec = dataclasses.replace(spec, shards=shards)
    if enabled:
        spec = dataclasses.replace(spec, observability=ObservabilitySpec(enabled=True))
    return spec


def _exports(data):
    return (export_spans(data), export_chrome_trace(data), export_prometheus(data))


# ------------------------------------------------- contract 1: disabled path


def test_golden_file_covers_every_cookbook_scenario():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {f"{stem}@shards={n}" for stem in STEMS for n in (1, 4)}
    assert set(golden) == expected


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("stem", STEMS)
def test_disabled_path_matches_seed_golden(stem, shards):
    key = f"{stem}@shards={shards}"
    fingerprint = _fingerprint(_spec(stem, shards=shards))
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        golden[key] = fingerprint
        GOLDEN.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert fingerprint == golden[key], (
        f"{key} drifted from the seed fingerprint; the disabled observability "
        "path must be byte-identical to a build without the subsystem"
    )


# ---------------------------------------- contract 2: enabled but read-only


@pytest.mark.parametrize("stem", ["steady_poisson", "chaos_tiered_recovery",
                                  "tiered_shared_prefix"])
def test_enabled_recording_leaves_results_unchanged(stem):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _fingerprint(_spec(stem, enabled=True)) == golden[f"{stem}@shards=1"]


def test_enabled_recording_unchanged_when_sharded():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fingerprint = _fingerprint(_spec("steady_poisson", shards=4, enabled=True))
    assert fingerprint == golden["steady_poisson@shards=4"]


def test_same_seed_runs_export_identical_bytes():
    first = run_scenario(_spec("chaos_tiered_recovery", enabled=True)).result.obs
    second = run_scenario(_spec("chaos_tiered_recovery", enabled=True)).result.obs
    assert _exports(first) == _exports(second)


# ----------------------------------- contract 2: shard-shape reproducibility


def _simulate(stem: str, *, shards: int, shard_workers: int):
    """One enabled run through the explicit simulate_fleet shard knobs."""
    spec = _spec(stem, shards=shards, enabled=True)
    requests = build_mix(spec).requests
    max_input_length = spec.max_input_length
    if max_input_length is None:
        max_input_length = max(request.num_tokens for request in requests)
    fleet = _build_fleet(spec, max_input_length)
    return simulate_fleet(
        fleet, requests, faults=spec.faults, shards=spec.shards,
        shard_workers=shard_workers, shard_seed=spec.seed,
    )


@pytest.mark.parametrize("shards,workers", [
    (4, 1),   # a recorded decoupled fleet runs the fleet loop
    (4, 2),   # ... whatever the worker count
    (4, 3),
])
def test_sharded_exports_match_unsharded(shards, workers):
    """Every shard setting runs the fleet loop and exports the unsharded bytes."""
    baseline = _simulate("steady_poisson", shards=1, shard_workers=1)
    sharded = _simulate("steady_poisson", shards=shards, shard_workers=workers)
    assert sharded.sharding["mode"] == "lockstep"
    assert _exports(sharded.obs) == _exports(baseline.obs)


def test_chaos_sharded_exports_match_unsharded():
    """Fault schedules force lockstep; the exports must still be identical."""
    baseline = _simulate("chaos_tiered_recovery", shards=1, shard_workers=1)
    sharded = _simulate("chaos_tiered_recovery", shards=4, shard_workers=1)
    assert _exports(sharded.obs) == _exports(baseline.obs)


def test_disabled_run_carries_no_obs_data():
    result = run_scenario(_spec("steady_poisson")).result
    assert result.obs is None
