"""Process-wide switchboard for the analytic-model memoization layers.

Several hot analytic paths memoize their results:

* :class:`repro.model.latency.LatencyModel` keeps an LRU of prefill / decode
  timings keyed on the full argument tuple;
* :func:`repro.core.profile_run.run_profile` interns profile-run results per
  (model, GPU, MIL, execution knobs) — a 32-replica fleet runs the profile
  pass once instead of 32 times;
* :meth:`repro.core.jct.JCTEstimator.from_latency_model` interns fitted
  estimators per engine configuration;
* :class:`repro.workloads.trace.TokenSequence` interns block hash chains
  globally (see :class:`repro.kvcache.block.HashChainCache`), so shared
  prefixes are hashed once per trace instead of once per request.

Every memoized value is **bit-identical** to a fresh computation (the caches
store exactly what the uncached code path would have returned, keyed on every
input that affects the result), so memoization never changes simulation
results.  The global switch exists purely for measurement: it lets a caller
time the same run with memoization off and on, and ``tests/test_memoization.py``
pins the on/off equivalence.

Set the ``REPRO_NO_MEMO=1`` environment variable to start a process with
memoization disabled, or call :func:`set_memo_enabled` at runtime (which also
clears every registered cache, so a disabled run never serves stale hits and
an enabled run starts cold).
"""

from __future__ import annotations

import os
from typing import Callable

__all__ = [
    "memo_enabled",
    "memo_epoch",
    "set_memo_enabled",
    "register_cache",
    "clear_all_caches",
]

_enabled: bool = os.environ.get("REPRO_NO_MEMO", "").lower() not in ("1", "true", "yes")

#: Clear-callbacks of every registered *module-level* cache.  Per-instance
#: caches (e.g. :class:`~repro.model.latency.LatencyModel`'s memos) must NOT
#: register here — a global registration would pin the instance forever;
#: they watch :func:`memo_epoch` instead and clear themselves lazily.
_cache_clearers: list[Callable[[], None]] = []

#: Bumped on every switch flip / global clear; epoch-watching caches treat a
#: change as "drop everything".
_epoch: int = 0


def memo_enabled() -> bool:
    """True when the memoization layers are active (the default)."""
    return _enabled


def memo_epoch() -> int:
    """Monotonic counter that advances whenever the caches must be dropped."""
    return _epoch


def set_memo_enabled(enabled: bool) -> None:
    """Enable or disable every memoization layer and clear all caches.

    Clearing on *every* transition keeps both directions honest: disabling
    cannot serve stale hits, and enabling starts from a cold cache exactly
    like a fresh process would.
    """
    global _enabled
    _enabled = bool(enabled)
    clear_all_caches()


def register_cache(clear: Callable[[], None]) -> None:
    """Register a module-level cache's clear-callback with the switchboard."""
    _cache_clearers.append(clear)


def clear_all_caches() -> None:
    """Empty every registered cache and invalidate the epoch-watching ones."""
    global _epoch
    _epoch += 1
    for clear in _cache_clearers:
        clear()
