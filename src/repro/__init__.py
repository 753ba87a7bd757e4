"""PrefillOnly reproduction: an inference engine for prefill-only LLM workloads.

This package reproduces the system described in "PrefillOnly: An Inference
Engine for Prefill-only Workloads in Large Language Model Applications"
(SOSP 2025) on a simulated GPU substrate.  The public API mirrors how the paper
organises the system:

* ``repro.model`` / ``repro.hardware`` — analytical models of the LLMs and GPUs
  the paper evaluates (architecture, memory, FLOPs, latency, interconnects);
* ``repro.kvcache`` — paged KV-cache allocation, radix-tree prefix caching,
  suffix discarding/offloading;
* ``repro.execution`` — a NumPy micro-transformer and chunk-by-chunk
  execution that validate hybrid prefilling numerically;
* ``repro.core`` — PrefillOnly itself: the engine, the profile run, JCT
  estimation, and SRJF scheduling with continuous JCT calibration;
* ``repro.baselines`` — the PagedAttention, chunked prefill, tensor parallel,
  and pipeline parallel baselines;
* ``repro.workloads`` — the post recommendation and credit verification
  traces, the multi-tenant mixer, and JSONL trace record/replay;
* ``repro.simulation`` — the discrete-event serving simulator, arrival
  processes, routing policies, and the config-driven scenario engine;
* ``repro.cluster`` — the fleet layer: multi-replica serving with admission
  control, reactive autoscaling, and the failure lifecycle;
* ``repro.faults`` — deterministic fault injection: typed chaos schedules,
  seeded MTBF/MTTR generation, resilience accounting;
* ``repro.frontend`` — the in-process OpenAI-compatible request path;
* ``repro.analysis`` — MIL analysis, QPS sweeps, and report formatting.

``repro`` and each package re-export their public names lazily (PEP 562, see
:func:`lazy_exports`): a name's defining module is imported on its first
use, so ``from repro import simulate`` loads only what the simulator needs.

Quick start::

    from repro import (
        prefillonly_engine_spec, ServingSystem, PoissonArrivalProcess,
        get_hardware_setup, get_workload, simulate,
    )

    setup = get_hardware_setup("h100")
    trace = get_workload("post-recommendation", num_users=4, posts_per_user=10)
    system = ServingSystem.for_setup(
        prefillonly_engine_spec(), setup, max_input_length=trace.max_request_tokens
    )
    requests = PoissonArrivalProcess(rate=5.0).assign(list(trace.requests))
    result = simulate(system, requests)
    print(result.summary.as_dict())
"""

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``(__getattr__, __dir__, __all__)`` of a package's re-exports.

    ``exports`` maps each defining module to the names ``package`` re-exports
    from it.  The first read of a name imports its module and caches the name
    in the package namespace, so ``import package`` imports nothing and later
    reads are plain lookups.  Any other name raises :class:`AttributeError`,
    which ``from package import submodule`` needs to fall back to importing
    the submodule; so no exported name may equal a submodule name.
    """
    origins = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in origins:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origins[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origins})

    return __getattr__, __dir__, list(origins)


__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.engine": (
        "EngineInstance", "EngineSpec", "FinishedRequest", "prefillonly_engine_spec",
    ),
    "repro.core.jct": ("JCTEstimator", "JCTProfiler", "jct_pearson_correlation"),
    "repro.core.scheduler": ("FCFSScheduler", "SRJFScheduler", "make_scheduler"),
    "repro.core.profile_run": ("run_profile",),
    "repro.baselines.registry": ("all_engine_specs", "baseline_specs", "get_engine_spec"),
    "repro.baselines.chunked_prefill": ("chunked_prefill_spec",),
    "repro.baselines.paged_attention": ("paged_attention_spec",),
    "repro.baselines.pipeline_parallel": ("pipeline_parallel_spec",),
    "repro.baselines.tensor_parallel": ("tensor_parallel_spec",),
    "repro.hardware.gpu": ("get_gpu",),
    "repro.hardware.cluster": ("get_hardware_setup", "list_hardware_setups"),
    "repro.model.config": ("get_model", "list_models"),
    "repro.kvcache.tiers.cluster_store": ("ClusterPrefixStore",),
    "repro.kvcache.manager": ("KVCacheManager",),
    "repro.kvcache.tiers.store": ("TieredPrefixStore",),
    "repro.execution.numeric": ("MicroTransformer", "MicroTransformerConfig"),
    "repro.simulation.arrival": (
        "BurstArrivalProcess", "MMPPArrivalProcess", "PoissonArrivalProcess", "make_arrival",
    ),
    "repro.simulation.routing": ("LeastLoadedRouter", "PrefixAffinityRouter", "UserIdRouter"),
    "repro.simulation.server": ("ServingSystem",),
    "repro.simulation.scenario": ("load_scenario", "run_scenario"),
    "repro.simulation.simulator": ("simulate", "simulate_fleet"),
    "repro.cluster.fleet": ("Fleet", "ReplicaSpec"),
    "repro.cluster.admission": ("AdmissionPolicy",),
    "repro.cluster.autoscaler": ("ReactiveAutoscaler",),
    "repro.faults.schedule": (
        "FaultEvent", "FaultSchedule", "fault_schedule_from_dict", "generate_crash_schedule",
    ),
    "repro.workloads.credit_verification": ("CreditVerificationWorkload",),
    "repro.workloads.post_recommendation": ("PostRecommendationWorkload",),
    "repro.workloads.mixer": ("TenantSpec", "mix_tenants"),
    "repro.workloads.registry": ("get_workload", "list_workloads"),
    "repro.workloads.tracefile": ("load_trace", "save_trace"),
    "repro.frontend.api": ("CompletionRequest",),
    "repro.frontend.server": ("PrefillOnlyFrontend",),
    "repro.analysis.sweep": ("base_throughput", "compare_engines", "qps_sweep"),
    "repro.analysis.mil": ("max_input_length", "mil_table"),
    "repro.analysis.ablation": ("mil_ablation",),
})
