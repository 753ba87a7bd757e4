"""Ablation — what happens to the KV cache after a prefill-only request.

Compares three KV configurations on the PrefillOnly engine:

* ``enable_prefix_caching=False`` — prefix caching disabled (every request
  recomputes);
* the default — the paper's suffix discarding (keep what fits on the GPU, drop
  the rest);
* ``cpu_offload_gib=64`` — the §9 extension (spill the overflow to host memory
  and stream it back over PCIe on a hit).

The post-recommendation workload is prefix-heavy, so caching configurations should
clearly beat no caching; offloading can only help further (it trades PCIe
transfer time for recomputation of whatever did not fit on the GPU).
"""

from __future__ import annotations

from conftest import post_recommendation_trace, show

from repro.analysis.sweep import base_throughput, qps_sweep
from repro.core.engine import prefillonly_engine_spec
from repro.hardware.cluster import get_hardware_setup

OVERLOAD_FACTOR = 1.5


def _run():
    setup = get_hardware_setup("l4")
    trace = post_recommendation_trace()
    base = base_throughput(prefillonly_engine_spec(), setup, trace)
    qps = base * OVERLOAD_FACTOR

    variants = {
        "no prefix caching": prefillonly_engine_spec().with_overrides(
            enable_prefix_caching=False
        ),
        "suffix discarding (paper default)": prefillonly_engine_spec(),
        "suffix offloading to CPU (§9)": prefillonly_engine_spec(cpu_offload_gib=64.0),
    }
    results = {}
    for label, spec in variants.items():
        results[label] = qps_sweep(spec, setup, trace, [qps], seed=9)[0]
    return results


def test_ablation_kv_configurations(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        {"policy": label,
         "mean_latency_s": round(point.mean_latency, 3),
         "p99_latency_s": round(point.p99_latency, 3),
         "throughput_rps": round(point.throughput_rps, 3),
         "cache_hit_rate": round(point.cache_hit_rate, 3)}
        for label, point in results.items()
    ]
    show("Ablation — KV cache configurations (post recommendation, 2x L4)", rows)
    benchmark.extra_info["kv_policy_ablation"] = rows

    none = results["no prefix caching"]
    discard = results["suffix discarding (paper default)"]
    offload = results["suffix offloading to CPU (§9)"]

    # Prefix caching is the big win on this workload.
    assert discard.mean_latency < none.mean_latency / 2
    assert discard.cache_hit_rate > 0.5 and none.cache_hit_rate == 0.0
    # Offloading never hurts hit rate and keeps latency within a small factor
    # of (usually at or below) plain discarding.
    assert offload.cache_hit_rate >= discard.cache_hit_rate - 1e-9
    assert offload.mean_latency <= discard.mean_latency * 1.1
