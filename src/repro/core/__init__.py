"""PrefillOnly core: the paper's primary contribution.

This package contains the pieces that make PrefillOnly PrefillOnly:

* :mod:`repro.core.jct` — job-completion-time profiling and estimation
  (offline profile over (input tokens, cached tokens) pairs, linear-regression
  fit, and the cache-miss-token proxy the paper uses by default);
* :mod:`repro.core.scheduler` — FCFS and SRJF schedulers, plus SRJF with
  continuous JCT calibration and the fairness offset λ (Algorithm 1);
* :mod:`repro.core.profile_run` — the startup profile run that turns a
  user-provided maximum input length into a KV-cache budget, sizing hybrid
  prefilling's activation peak with :class:`repro.model.memory.MemoryModel`;
* :mod:`repro.core.engine` — the engine specification and the simulated engine
  instance, with :func:`repro.core.engine.prefillonly_engine_spec` building the
  paper's configuration (hybrid prefilling + suffix discarding + calibrated
  SRJF).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.jct": ("JCTEstimator", "JCTProfiler", "JCTProfile", "jct_pearson_correlation"),
    "repro.core.scheduler": (
        "Scheduler", "FCFSScheduler", "SRJFScheduler", "SchedulerDecision", "make_scheduler",
    ),
    "repro.core.profile_run": ("ProfileRunResult", "run_profile"),
    "repro.core.engine": (
        "EngineSpec", "EngineInstance", "FinishedRequest", "EngineRequest",
        "prefillonly_engine_spec",
    ),
})
