"""Workload substrate: synthetic prefill-only request traces and trace files.

The paper evaluates on two simulated datasets (its Table 1): a post
recommendation workload with heavy prefix reuse and moderate lengths, and a
credit verification workload with very long inputs and no reuse.  This package
generates both with the paper's token-length distributions, plus the plumbing
they share:

* a compact token-sequence representation (:mod:`repro.workloads.trace`), so
  60,000-token requests do not materialise 60,000 integers;
* a name-based generator registry (:mod:`repro.workloads.registry`) that
  raises :class:`repro.errors.UnknownWorkloadError` — carrying the valid
  names — on a bad lookup;
* a multi-tenant mixer (:mod:`repro.workloads.mixer`) that interleaves
  weighted, namespaced tenant streams with per-tenant SLOs;
* trace recording and bit-for-bit replay (:mod:`repro.workloads.tracefile`)
  in the ``repro-trace/v1`` JSONL format: line 1 is a header object
  (``{"schema": "repro-trace/v1", "name", "seed", "num_requests",
  "description"}``) and every further line is one request
  (``{"request_id", "user_id", "arrival_time", "allowed_outputs",
  "segments": [[content_id, length], ...], "metadata"}``) in arrival order —
  floats round-trip exactly, so a replayed trace reproduces the original run
  event for event;
* a deterministic synthetic tokenizer for the examples.

The scenario cookbook (``docs/SCENARIOS.md``) shows how these compose with the
arrival processes in :mod:`repro.simulation.arrival` into runnable scenarios.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.trace": ("TokenSegment", "TokenSequence", "Request", "WorkloadTrace"),
    "repro.workloads.tokenizer": ("SyntheticTokenizer",),
    "repro.workloads.post_recommendation": ("PostRecommendationWorkload",),
    "repro.workloads.credit_verification": ("CreditVerificationWorkload",),
    "repro.workloads.registry": ("get_workload", "list_workloads"),
    "repro.workloads.mixer": ("MixedTrace", "TenantSpec", "mix_tenants"),
    "repro.workloads.tracefile": ("TRACE_SCHEMA", "load_trace", "save_trace"),
})
