"""PrefillOnly reproduction: an inference engine for prefill-only LLM workloads.

This package reproduces the system described in "PrefillOnly: An Inference
Engine for Prefill-only Workloads in Large Language Model Applications"
(SOSP 2025) on a simulated GPU substrate.  The public API mirrors how the paper
organises the system:

* ``repro.model`` / ``repro.hardware`` — analytical models of the LLMs and GPUs
  the paper evaluates (architecture, memory, FLOPs, latency, interconnects);
* ``repro.kvcache`` — paged KV-cache allocation, radix-tree prefix caching,
  suffix discarding/offloading;
* ``repro.execution`` — a NumPy micro-transformer and computation-graph
  machinery that validate hybrid prefilling numerically;
* ``repro.core`` — PrefillOnly itself: hybrid prefilling, the profile run, JCT
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

from repro.core.engine import (
    EngineInstance,
    EngineSpec,
    FinishedRequest,
    build_engine,
    prefillonly_engine_spec,
)
from repro.core.jct import JCTEstimator, JCTProfiler, jct_pearson_correlation
from repro.core.scheduler import FCFSScheduler, SRJFScheduler, make_scheduler
from repro.core.hybrid_prefill import HybridPrefillPlanner
from repro.core.profile_run import run_profile
from repro.baselines import (
    all_engine_specs,
    baseline_specs,
    chunked_prefill_spec,
    get_engine_spec,
    paged_attention_spec,
    pipeline_parallel_spec,
    tensor_parallel_spec,
)
from repro.hardware import get_gpu, get_hardware_setup, list_hardware_setups
from repro.model import get_model, list_models
from repro.kvcache import (
    ClusterPrefixStore,
    KVCacheManager,
    TieredPrefixStore,
)
from repro.execution import MicroTransformer, MicroTransformerConfig
from repro.simulation import (
    BurstArrivalProcess,
    LeastLoadedRouter,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    PrefixAffinityRouter,
    ServingSystem,
    UserIdRouter,
    load_scenario,
    make_arrival,
    run_scenario,
    simulate,
    simulate_fleet,
)
from repro.cluster import (
    Fleet,
    QueueDepthAdmission,
    ReactiveAutoscaler,
    ReplicaSpec,
)
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    fault_schedule_from_dict,
    generate_crash_schedule,
)
from repro.workloads import (
    CreditVerificationWorkload,
    PostRecommendationWorkload,
    TenantSpec,
    get_workload,
    list_workloads,
    load_trace,
    mix_tenants,
    save_trace,
)
from repro.frontend import CompletionRequest, PrefillOnlyFrontend
from repro.analysis import (
    base_throughput,
    compare_engines,
    max_input_length,
    mil_ablation,
    mil_table,
    qps_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "EngineInstance",
    "EngineSpec",
    "FinishedRequest",
    "build_engine",
    "prefillonly_engine_spec",
    "JCTEstimator",
    "JCTProfiler",
    "jct_pearson_correlation",
    "FCFSScheduler",
    "SRJFScheduler",
    "make_scheduler",
    "HybridPrefillPlanner",
    "run_profile",
    # baselines
    "all_engine_specs",
    "baseline_specs",
    "chunked_prefill_spec",
    "get_engine_spec",
    "paged_attention_spec",
    "pipeline_parallel_spec",
    "tensor_parallel_spec",
    # substrates
    "get_gpu",
    "get_hardware_setup",
    "list_hardware_setups",
    "get_model",
    "list_models",
    "KVCacheManager",
    "TieredPrefixStore",
    "ClusterPrefixStore",
    "MicroTransformer",
    "MicroTransformerConfig",
    # serving
    "BurstArrivalProcess",
    "PoissonArrivalProcess",
    "MMPPArrivalProcess",
    "make_arrival",
    "UserIdRouter",
    "LeastLoadedRouter",
    "PrefixAffinityRouter",
    "ServingSystem",
    "simulate",
    "simulate_fleet",
    "load_scenario",
    "run_scenario",
    # cluster fleet
    "Fleet",
    "ReplicaSpec",
    "QueueDepthAdmission",
    "ReactiveAutoscaler",
    # fault injection
    "FaultEvent",
    "FaultSchedule",
    "fault_schedule_from_dict",
    "generate_crash_schedule",
    # workloads
    "CreditVerificationWorkload",
    "PostRecommendationWorkload",
    "TenantSpec",
    "mix_tenants",
    "get_workload",
    "list_workloads",
    "save_trace",
    "load_trace",
    # frontend
    "CompletionRequest",
    "PrefillOnlyFrontend",
    # analysis
    "base_throughput",
    "compare_engines",
    "max_input_length",
    "mil_ablation",
    "mil_table",
    "qps_sweep",
]
