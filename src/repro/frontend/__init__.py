"""Serving frontend: the OpenAI-compatible request path of §3.1.

The paper's engine "opens an HTTP server compatible with the OpenAI API
protocol"; the frontend tokenizes each request and ships it over a ZeroMQ RPC
boundary to the scheduler process, and the prefill-only probability score flows
back the same way.  This package reproduces that request path in-process:

* :mod:`repro.frontend.api` — the request/response schema (a prefill-only
  subset of the OpenAI completions API, including the constrained-output list);
* :mod:`repro.frontend.rpc` — the frontend/scheduler message boundary as
  serialisable dataclasses over an in-process channel (the ZeroMQ stand-in);
* :mod:`repro.frontend.server` — the frontend itself: validation, tokenization,
  dispatch to a scoring backend, and OpenAI-shaped responses.  The default
  backend scores with the NumPy micro-transformer via hybrid prefilling, so the
  functional contract (P(Yes)/P(No) per request) is exercised end to end; the
  performance path is the discrete-event simulator in :mod:`repro.simulation`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.frontend.api": (
        "CompletionChoice", "CompletionRequest", "CompletionResponse", "TokenProbability",
        "UsageInfo", "parse_completion_request",
    ),
    "repro.frontend.rpc": ("InProcessChannel", "ScoreReply", "SubmitRequest"),
    "repro.frontend.server": ("MicroModelBackend", "PrefillOnlyFrontend", "ScoringBackend"),
})
