"""Tests for the scenario engine: arrivals, mixing, trace files, event loops.

The two load-bearing properties pinned here:

* **Record → replay determinism** — any request stream survives a JSONL
  round-trip bit-for-bit (property-based over generated segment structures and
  arrival processes), and a recorded scenario replays to the exact metrics of
  the original run.
* **Loop goldens** — the paper-figure ``simulate`` loop and a two-replica
  fleet loop reproduce the fingerprints in
  ``tests/golden/loop_fingerprints.json`` record for record.  To regenerate
  after an *intentional* simulation change::

      REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_scenario.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.errors import (
    ScenarioError,
    ScenarioSpecError,
    UnknownNameError,
    UnknownWorkloadError,
    WorkloadError,
    WorkloadSpecError,
)
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import (
    ARRIVAL_FACTORIES,
    ClosedLoopArrivalProcess,
    DiurnalArrivalProcess,
    FlashCrowdArrivalProcess,
    MMPPArrivalProcess,
    make_arrival,
)
from repro.simulation.scenario import (
    load_scenario,
    replay_scenario,
    run_scenario,
    scenario_from_dict,
)
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import simulate, simulate_fleet
from repro.workloads.mixer import TenantSpec, mix_tenants
from repro.workloads.post_recommendation import PostRecommendationWorkload
from repro.workloads.registry import get_workload
from repro.workloads.trace import Request, TokenSegment, TokenSequence
from repro.workloads.tracefile import load_trace, save_trace


@pytest.fixture(scope="module")
def small_trace():
    return get_workload("post-recommendation", num_users=4, posts_per_user=8, seed=0)


# ------------------------------------------------------------------ arrivals


#: Parameters that make each registered arrival process valid.
ARRIVAL_PARAMS = {
    "poisson": {"rate": 5.0},
    "burst": {},
    "uniform": {"rate": 5.0},
    "mmpp": {"base_rate": 2.0, "burst_rate": 20.0},
    "diurnal": {"mean_rate": 5.0, "period_seconds": 60.0},
    "flash-crowd": {"base_rate": 2.0, "spike_rate": 25.0},
    "closed-loop": {"num_clients": 3},
}


@pytest.mark.parametrize("name", sorted(ARRIVAL_FACTORIES))
def test_every_arrival_is_sorted_and_deterministic(name, small_trace):
    process = make_arrival(name, seed=9, **ARRIVAL_PARAMS[name])
    first = process.assign(list(small_trace.requests))
    second = process.assign(list(small_trace.requests))
    times = [r.arrival_time for r in first]
    assert times == sorted(times)
    assert times == [r.arrival_time for r in second]
    assert [r.request_id for r in first] == [r.request_id for r in second]


@pytest.mark.parametrize("name", sorted(ARRIVAL_FACTORIES))
def test_assign_leaves_its_input_untouched(name):
    """``assign`` returns timed copies: a caller's requests keep their times,
    so one trace can feed several arrival processes."""
    requests = list(get_workload("post-recommendation", num_users=4,
                                 posts_per_user=8, seed=0))
    for request in requests:
        request.arrival_time = 7.5
    order = [request.request_id for request in requests]
    assigned = make_arrival(name, seed=9, **ARRIVAL_PARAMS[name]).assign(requests)
    assert [request.request_id for request in requests] == order
    assert all(request.arrival_time == 7.5 for request in requests)
    inputs = {id(request) for request in requests}
    assert not any(id(request) in inputs for request in assigned)
    assert sorted(r.request_id for r in assigned) == sorted(order)


@pytest.mark.parametrize("name, params, field", [
    ("poisson", {"rate": math.nan}, "rate"),
    ("uniform", {"rate": math.inf}, "rate"),
    ("burst", {"at_time": math.nan}, "at_time"),
    ("burst", {"at_time": -5.0}, "at_time"),
    ("mmpp", {"base_rate": 2.0, "burst_rate": math.inf}, "burst_rate"),
    ("diurnal", {"mean_rate": 5.0, "period_seconds": math.nan}, "period_seconds"),
    ("flash-crowd", {"base_rate": 2.0, "spike_rate": 25.0,
                     "spike_interval_seconds": math.inf}, "spike_interval_seconds"),
    ("closed-loop", {"num_clients": 3, "service_estimate_seconds": math.nan},
     "service_estimate_seconds"),
], ids=["poisson-nan-rate", "uniform-inf-rate", "burst-nan-time", "burst-negative-time",
        "mmpp-inf-rate", "diurnal-nan-period", "flash-crowd-inf-interval",
        "closed-loop-nan-service"])
def test_arrival_rejects_non_finite_or_negative_parameters(name, params, field):
    """NaN passes every ``<=`` range check and infinity every minimum, so both
    need their own check; a burst before time zero would stretch the run."""
    with pytest.raises(WorkloadError) as excinfo:
        make_arrival(name, **params)
    assert field in str(excinfo.value)


def test_mmpp_is_burstier_than_poisson(small_trace):
    """The squared coefficient of variation of MMPP gaps exceeds Poisson's ~1."""
    import numpy as np

    requests = list(small_trace.requests)
    mmpp = MMPPArrivalProcess(base_rate=1.0, burst_rate=50.0,
                              mean_quiet_seconds=30.0, mean_burst_seconds=3.0,
                              seed=1).assign(requests)
    gaps = np.diff([r.arrival_time for r in mmpp])
    cv2 = np.var(gaps) / np.mean(gaps) ** 2
    assert cv2 > 1.5


def test_diurnal_mean_rate_is_respected():
    requests = list(get_workload("post-recommendation", num_users=8,
                                 posts_per_user=25, seed=0))
    process = DiurnalArrivalProcess(mean_rate=4.0, period_seconds=50.0, seed=2)
    assigned = process.assign(requests)
    realized = len(assigned) / assigned[-1].arrival_time
    assert realized == pytest.approx(4.0, rel=0.35)


def test_flash_crowd_concentrates_arrivals_in_spike(small_trace):
    process = FlashCrowdArrivalProcess(base_rate=0.5, spike_rate=50.0,
                                       first_spike_at=10.0, spike_seconds=5.0,
                                       seed=3)
    assigned = process.assign(list(small_trace.requests))
    in_spike = sum(1 for r in assigned if 10.0 <= r.arrival_time < 15.0)
    assert in_spike > len(assigned) / 2


def test_closed_loop_respects_client_concurrency(small_trace):
    """No client ever has two requests outstanding: per-client spacing >= estimate."""
    process = ClosedLoopArrivalProcess(num_clients=2, mean_think_seconds=0.5,
                                       service_estimate_seconds=1.0, seed=4,
                                       shuffle=False)
    requests = list(small_trace.requests)
    arrival_of = {r.request_id: r.arrival_time for r in process.assign(requests)}
    # Reconstruct the per-client streams from the round-robin deal order.
    clients: dict[int, list[float]] = {0: [], 1: []}
    for index, request in enumerate(requests):
        clients[index % 2].append(arrival_of[request.request_id])
    for times in clients.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 1.0 for gap in gaps)


def test_make_arrival_unknown_name_lists_choices():
    with pytest.raises(UnknownNameError) as excinfo:
        make_arrival("pareto", rate=1.0)
    assert "mmpp" in str(excinfo.value)
    assert "pareto" == excinfo.value.name


def test_make_arrival_bad_params_raise_workload_error():
    with pytest.raises(WorkloadError):
        make_arrival("poisson", rate=1.0, unknown_knob=3)
    with pytest.raises(WorkloadError):
        make_arrival("mmpp", base_rate=5.0, burst_rate=1.0)


# ------------------------------------------------------------------ registry


def test_workload_registry_unknown_name_is_typed():
    with pytest.raises(UnknownWorkloadError) as excinfo:
        get_workload("does-not-exist")
    error = excinfo.value
    assert error.name == "does-not-exist"
    assert error.available == ["credit-verification", "post-recommendation"]
    assert "post-recommendation" in str(error)
    # Still catchable as the package-level workload error.
    assert isinstance(error, WorkloadError)


# --------------------------------------------------------------------- mixer


def test_mix_tenants_namespaces_and_weights(small_trace):
    generator = PostRecommendationWorkload(num_users=3, posts_per_user=6)
    tenants = [
        TenantSpec(name="a", generator=generator,
                   arrival=make_arrival("poisson", rate=5.0, seed=1)),
        TenantSpec(name="b", generator=generator,
                   arrival=make_arrival("poisson", rate=5.0, seed=2),
                   weight=0.5),
    ]
    mix = mix_tenants(tenants, name="two-tenant", seed=0)
    counts = mix.per_tenant_counts()
    assert counts["a"] == 18
    assert counts["b"] == 9
    # Globally unique ids, arrival-sorted, tenant recorded in metadata.
    ids = [r.request_id for r in mix.requests]
    assert ids == list(range(len(mix.requests)))
    times = [r.arrival_time for r in mix.requests]
    assert times == sorted(times)
    assert {r.metadata["tenant"] for r in mix.requests} == {"a", "b"}
    # Identical workloads must not share content ids across tenants.
    a_ids = {s.content_id for r in mix.requests if r.metadata["tenant"] == "a"
             for s in r.sequence.segments}
    b_ids = {s.content_id for r in mix.requests if r.metadata["tenant"] == "b"
             for s in r.sequence.segments}
    assert not a_ids & b_ids


def test_mix_tenants_rejects_duplicates():
    tenant = TenantSpec(name="a",
                        generator=PostRecommendationWorkload(num_users=1, posts_per_user=2),
                        arrival=make_arrival("burst"))
    with pytest.raises(WorkloadError):
        mix_tenants([tenant, tenant])


# ----------------------------------------------------- trace file round-trip

segments_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40),
              st.integers(min_value=1, max_value=5000)),
    min_size=1, max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            segments_strategy,
            st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False),
            st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\n\r"),
                    min_size=1, max_size=12),
        ),
        min_size=1, max_size=8,
    ),
)
def test_trace_roundtrip_is_bit_exact(tmp_path_factory, rows):
    """Arbitrary segment structures, float times, and user ids survive JSONL."""
    requests = [
        Request(
            request_id=index,
            user_id=user_id,
            sequence=TokenSequence([TokenSegment(cid, length) for cid, length in segments]),
            arrival_time=arrival,
            metadata={"tenant": "t", "index": index},
        )
        for index, (segments, arrival, user_id) in enumerate(rows)
    ]
    path = tmp_path_factory.mktemp("traces") / "roundtrip.jsonl"
    save_trace(path, requests, name="prop", seed=1)
    header, loaded = load_trace(path)
    assert header["num_requests"] == len(requests)
    assert len(loaded) == len(requests)
    for original, restored in zip(requests, loaded):
        assert restored.request_id == original.request_id
        assert restored.user_id == original.user_id
        assert restored.arrival_time == original.arrival_time  # exact, not approx
        assert math.copysign(1, restored.arrival_time) == math.copysign(1, original.arrival_time)
        assert restored.sequence.segments == original.sequence.segments
        assert restored.allowed_outputs == original.allowed_outputs
        assert restored.metadata == original.metadata


def test_trace_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
    with pytest.raises(ScenarioError):
        load_trace(path)


def test_trace_rejects_count_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"schema": "repro-trace/v1", "name": "x", "num_requests": 2}
    row = {"request_id": 0, "user_id": "u", "arrival_time": 0.0,
           "allowed_outputs": ["Yes"], "segments": [[1, 4]], "metadata": {}}
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ScenarioError):
        load_trace(path)


_TRACE_HEADER = {"schema": "repro-trace/v1", "name": "x", "num_requests": 1}
_TRACE_ROW = {"request_id": 0, "user_id": "u", "arrival_time": 0.0,
              "allowed_outputs": ["Yes"], "segments": [[1, 4]], "metadata": {}}


@pytest.mark.parametrize("header, row, message", [
    ([], _TRACE_ROW, "trace line 1: header must be a JSON object"),
    (_TRACE_HEADER, {**_TRACE_ROW, "arrival_time": math.inf}, "trace line 2: arrival_time"),
    (_TRACE_HEADER, {**_TRACE_ROW, "arrival_time": math.nan}, "trace line 2: arrival_time"),
    (_TRACE_HEADER, {**_TRACE_ROW, "arrival_time": -5.0}, "trace line 2: arrival_time"),
    (_TRACE_HEADER, {**_TRACE_ROW, "segments": [[1, 0]]}, "trace line 2: malformed"),
    (_TRACE_HEADER, {**_TRACE_ROW, "segments": []}, "trace line 2: malformed"),
], ids=["list-header", "inf-arrival", "nan-arrival", "negative-arrival",
        "empty-segment", "no-segments"])
def test_trace_rejects_a_malformed_line_by_number(tmp_path, header, row, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ScenarioError) as excinfo:
        load_trace(path)
    assert message in str(excinfo.value)


# --------------------------------------------------------------- event queue


def test_event_queue_lazy_deletion_and_ties():
    from repro.simulation.events import EventQueue

    queue = EventQueue()
    queue.update(0, 5.0)
    queue.update(1, 3.0)
    queue.update(2, 3.0)
    assert queue.peek() == (3.0, 1)  # ties break on the lower key
    queue.update(1, 7.0)             # stale entry for key 1 left behind
    assert queue.peek() == (3.0, 2)
    assert queue.pop_due(3.0) == [2]
    assert queue.next_time() == 5.0
    queue.update(0, None)            # key 0 no longer has an event
    assert queue.peek() == (7.0, 1)
    queue.discard(1)
    assert queue.peek() is None


# ------------------------------------------- cache fast-path micro-behaviour


def test_lookup_from_matches_lookup_for_any_hint():
    from repro.kvcache.manager import KVCacheManager

    kv = KVCacheManager(16 * 256, block_size=256)
    hashes = tuple(range(1, 13))
    kv._cache.insert(hashes[:7], now=1.0)
    for hint in range(0, len(hashes) + 2):
        assert kv.lookup_from(hashes, hint) == kv.lookup(hashes)
    # After evicting, every hint must still agree with the fresh walk.
    kv._cache.evict_blocks(3)
    for hint in range(0, len(hashes) + 2):
        assert kv.lookup_from(hashes, hint) == kv.lookup(hashes)


# ------------------------------------------------------------- loop goldens

LOOP_GOLDEN = Path(__file__).parent / "golden" / "loop_fingerprints.json"

#: ``simulate`` runs on the 4x8 trace, one per arrival process.
SIMULATE_ARRIVALS = {
    "poisson": {"rate": 4.0, "seed": 1},
    "burst": {"seed": 2},
    "mmpp": {"base_rate": 2.0, "burst_rate": 20.0, "seed": 3},
}

#: Two-replica fleet runs under MMPP bursts, one per workload.
FLEET_WORKLOADS = {
    "post-recommendation": {"num_users": 5, "posts_per_user": 8},
    "credit-verification": {"num_users": 8},
}


def _loop_fingerprint(result) -> dict:
    """Summary, event count, cache stats and a digest of every terminal record."""
    records = sorted(
        [r.request_id, r.instance_name, r.cached_tokens,
         r.arrival_time, r.start_time, r.finish_time]
        for r in result.finished + result.rejected
    )
    fingerprint = {
        "summary": dataclasses.asdict(result.summary),
        "num_events": result.num_events,
        "cache_stats": result.cache_stats,
        "records": hashlib.sha256(json.dumps(records).encode()).hexdigest(),
    }
    if hasattr(result, "fleet"):
        fingerprint["fleet"] = result.fleet.as_dict()
    return json.loads(json.dumps(fingerprint))


def _check_loop_golden(key: str, fingerprint: dict) -> None:
    golden = json.loads(LOOP_GOLDEN.read_text(encoding="utf-8")) if LOOP_GOLDEN.exists() else {}
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        golden[key] = fingerprint
        LOOP_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        return
    assert key in golden, f"no golden for {key}; generate it with REPRO_UPDATE_GOLDENS=1"
    assert fingerprint == golden[key], f"{key} drifted from {LOOP_GOLDEN.name}"


@pytest.mark.parametrize("arrival", sorted(SIMULATE_ARRIVALS))
def test_simulate_matches_loop_golden(arrival, small_trace):
    """The paper-figure loop: one prefillonly system on the h100 setup."""
    requests = make_arrival(arrival, **SIMULATE_ARRIVALS[arrival]).assign(
        list(small_trace.requests)
    )
    system = ServingSystem.for_setup(
        prefillonly_engine_spec(), get_hardware_setup("h100"),
        max_input_length=small_trace.max_request_tokens,
    )
    _check_loop_golden(f"simulate/{arrival}", _loop_fingerprint(simulate(system, requests)))


@pytest.mark.parametrize("workload", sorted(FLEET_WORKLOADS))
def test_fleet_matches_loop_golden(workload):
    trace = get_workload(workload, seed=1, **FLEET_WORKLOADS[workload])
    requests = make_arrival("mmpp", base_rate=2.0, burst_rate=15.0, seed=4).assign(
        list(trace.requests)
    )
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), get_hardware_setup("h100"),
        max_input_length=trace.max_request_tokens,
        num_replicas=2,
    )
    _check_loop_golden(f"fleet/{workload}", _loop_fingerprint(simulate_fleet(fleet, requests)))


# ------------------------------------------------------------ scenario runs


def _two_tenant_config(**overrides):
    config = {
        "name": "test-mix",
        "setup": "h100",
        "replicas": 2,
        "seed": 5,
        "tenants": [
            {"name": "social", "workload": "post-recommendation",
             "workload_params": {"num_users": 3, "posts_per_user": 6},
             "slo_latency_s": 5.0,
             "arrival": "mmpp",
             "arrival_params": {"base_rate": 2.0, "burst_rate": 10.0}},
            {"name": "bank", "workload": "credit-verification",
             "workload_params": {"num_users": 4},
             "arrival": "poisson", "arrival_params": {"rate": 0.5}},
        ],
    }
    config.update(overrides)
    return config


def test_scenario_run_reports_every_tenant():
    result = run_scenario(scenario_from_dict(_two_tenant_config()))
    assert [report.name for report in result.tenants] == ["social", "bank"]
    total = sum(report.summary.num_requests for report in result.tenants)
    assert total == result.result.num_finished
    social = result.tenants[0]
    assert social.slo_latency_s == 5.0
    assert social.slo_attainment is not None
    assert 0.0 <= social.slo_attainment <= 1.0
    assert result.tenants[1].slo_attainment is None


def test_scenario_record_then_replay_is_identical(tmp_path):
    spec = scenario_from_dict(_two_tenant_config())
    trace_path = tmp_path / "mix.jsonl"
    original = run_scenario(spec, record=trace_path)
    assert original.trace_path == trace_path
    replayed = replay_scenario(spec, trace_path)
    assert replayed.result.summary == original.result.summary
    assert replayed.result.fleet.as_dict() == original.result.fleet.as_dict()
    assert [r.as_dict() for r in replayed.tenants] == [r.as_dict() for r in original.tenants]


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError):
        scenario_from_dict(_two_tenant_config(qps=3.0))
    bad_tenant = _two_tenant_config()
    bad_tenant["tenants"][0]["slo"] = 1.0
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad_tenant)


def test_scenario_rejects_a_nan_slo_at_its_path():
    config = _two_tenant_config()
    config["tenants"][0]["slo_latency_s"] = math.nan
    with pytest.raises(ScenarioSpecError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == "tenants[0].slo_latency_s"
    assert "finite" in str(excinfo.value)


@pytest.mark.parametrize("key, value, message", [
    ("num_users", math.nan, "num_users must be an integer, got nan"),
    ("num_users", "4", "num_users must be an integer, got '4'"),
    ("posts_per_user", True, "posts_per_user must be an integer, got True"),
    ("num_users", 0, "num_users must be at least 1, got 0"),
    ("posts_per_user", -2, "posts_per_user must be at least 1, got -2"),
    ("seed", -1, "seed must be non-negative, got -1"),
])
def test_scenario_rejects_bad_workload_params_at_their_path(key, value, message):
    config = _two_tenant_config()
    config["tenants"][0]["workload_params"][key] = value
    with pytest.raises(WorkloadSpecError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == f"tenants[0].workload_params.{key}"
    assert message in str(excinfo.value)


def test_scenario_rejects_unknown_workload_param_naming_the_accepted_keys():
    config = _two_tenant_config()
    config["tenants"][1]["workload_params"]["months"] = 3
    with pytest.raises(WorkloadSpecError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == "tenants[1].workload_params.months"
    assert "unknown keys ['months']" in str(excinfo.value)
    assert "months_of_history" in str(excinfo.value)


def test_scenario_rejects_a_repeated_tenant_name_at_its_path():
    """Two tenants named alike parsed, and the run failed in the mixer with
    a path-less error."""
    config = _two_tenant_config()
    config["tenants"][1]["name"] = "social"
    with pytest.raises(ScenarioSpecError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == "tenants[1].name"
    assert "duplicate tenant name 'social'" in str(excinfo.value)


def test_scenario_rejects_unknown_low_priority_tenant():
    """A misspelt tenant would match no request, so nothing would be shed."""
    config = _two_tenant_config(resilience={"degrade": {
        "depth_per_replica": 2.0, "low_priority_tenants": ["social", "bnak"],
    }})
    with pytest.raises(ScenarioSpecError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == "resilience.degrade.low_priority_tenants[1]"
    assert "'bnak'" in str(excinfo.value)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_two_tenant_config()))
    spec = load_scenario(path)
    assert spec.name == "test-mix"
    assert len(spec.tenants) == 2
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")


def test_scenario_cli_run_and_replay(tmp_path, capsys):
    from repro.cli import main

    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(_two_tenant_config()))
    trace_path = tmp_path / "trace.jsonl"

    assert main(["scenario", "run", "--config", str(config_path),
                 "--record", str(trace_path)]) == 0
    run_output = capsys.readouterr().out
    assert "Per-tenant summary" in run_output
    assert "social" in run_output and "bank" in run_output
    assert trace_path.exists()

    assert main(["scenario", "replay", "--config", str(config_path),
                 "--trace", str(trace_path)]) == 0
    replay_output = capsys.readouterr().out
    # The replay reproduces the run's tables exactly (minus the record notice).
    assert replay_output.strip() == run_output.split("\nTrace recorded to")[0].strip()

    assert main(["scenario", "arrivals"]) == 0
    assert "mmpp" in capsys.readouterr().out
