"""PrefillOnly core: the paper's primary contribution.

This package contains the pieces that make PrefillOnly PrefillOnly:

* :mod:`repro.core.jct` — job-completion-time profiling and estimation
  (offline profile over (input tokens, cached tokens) pairs, linear-regression
  fit, and the cache-miss-token proxy the paper uses by default);
* :mod:`repro.core.scheduler` — FCFS and SRJF schedulers, plus SRJF with
  continuous JCT calibration and the fairness offset λ (Algorithm 1);
* :mod:`repro.core.hybrid_prefill` — the hybrid prefilling planner built on the
  computation-graph grouping pass;
* :mod:`repro.core.profile_run` — the startup profile run that turns a
  user-provided maximum input length into a KV-cache budget;
* :mod:`repro.core.engine` — the engine specification and the simulated engine
  instance, with :func:`repro.core.engine.prefillonly_engine_spec` building the
  paper's configuration (hybrid prefilling + suffix discarding + calibrated
  SRJF).
"""

from repro.core.jct import JCTEstimator, JCTProfiler, JCTProfile, jct_pearson_correlation
from repro.core.scheduler import (
    Scheduler,
    FCFSScheduler,
    SRJFScheduler,
    SchedulerDecision,
    make_scheduler,
)
from repro.core.hybrid_prefill import HybridPrefillPlanner, HybridPrefillPlan
from repro.core.profile_run import ProfileRunResult, run_profile
from repro.core.engine import (
    EngineSpec,
    EngineInstance,
    FinishedRequest,
    EngineRequest,
    prefillonly_engine_spec,
    build_engine,
)

__all__ = [
    "JCTEstimator",
    "JCTProfiler",
    "JCTProfile",
    "jct_pearson_correlation",
    "Scheduler",
    "FCFSScheduler",
    "SRJFScheduler",
    "SchedulerDecision",
    "make_scheduler",
    "HybridPrefillPlanner",
    "HybridPrefillPlan",
    "ProfileRunResult",
    "run_profile",
    "EngineSpec",
    "EngineInstance",
    "FinishedRequest",
    "EngineRequest",
    "prefillonly_engine_spec",
    "build_engine",
]
