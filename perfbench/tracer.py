"""Layer-attributed wall-clock tracing, installed from outside ``src/``.

:class:`Tracer` replaces each layer's entry points (class methods and module
functions named in :data:`GROUPS`) with timing wrappers.  Wrappers keep a
call stack: a call's *self* time is its inclusive time minus the inclusive
time of the wrapped calls nested inside it, so the self times of all groups
plus the root partition the traced wall time exactly.  A call nested directly
inside a call of the same group merges into it (one logical operation), so
counts are not doubled by delegation such as ``next_time -> peek``.

Only entry points are wrapped, never per-block methods such as
``Block.pin``/``touch`` (about 10^5 calls per run).  Everything is kept in
memory and summarised once, at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

#: (group, layer, targets).  A target is ``module:Class.attr`` or
#: ``module:function``; ``Class`` may be ``*`` for every class of the module
#: that defines ``attr`` itself.  The ``results`` layer (end-of-run summaries)
#: is deliberately not a program layer: its time is the unattributed share.
GROUPS = (
    ("setup.workload", "setup", (
        "repro.workloads.registry:get_workload",
        "repro.workloads.mixer:mix_tenants",
        "repro.simulation.scenario:scenario_from_dict",
        "repro.simulation.arrival:*.assign",
    )),
    ("setup.build", "setup", (
        "repro.simulation.server:ServingSystem.__init__",
        "repro.cluster.fleet:Fleet.__init__",
    )),
    ("setup.engine", "setup", ("repro.core.engine:EngineInstance.__init__",)),
    ("simulation.loop", "simulation", (
        "repro.simulation.simulator:simulate",
        "repro.simulation.simulator:simulate_fleet",
        "repro.simulation.sharded:simulate_fleet_decoupled",
        "repro.simulation.sharded:ShardEngine.__init__",
        "repro.simulation.sharded:ShardEngine.run",
    )),
    ("simulation.queue", "simulation", (
        "repro.simulation.events:EventQueue.update",
        "repro.simulation.events:EventQueue.discard",
        "repro.simulation.events:EventQueue.peek",
        "repro.simulation.events:EventQueue.next_time",
        "repro.simulation.events:EventQueue.pop_due",
        "repro.simulation.events:EventQueue.pop_due_entries",
    )),
    ("cluster.submit", "cluster", ("repro.cluster.fleet:Fleet.submit",)),
    ("cluster.fleet", "cluster", (
        "repro.cluster.fleet:Fleet.advance_to",
        "repro.cluster.fleet:Fleet.maybe_autoscale",
        "repro.cluster.fleet:Fleet.scale_up",
        "repro.cluster.fleet:Fleet.scale_down",
        "repro.cluster.autoscaler:ReactiveAutoscaler.decide",
    )),
    ("cluster.route", "cluster", (
        "repro.simulation.routing:UserIdRouter.route",
        "repro.simulation.routing:LeastLoadedRouter.route",
        "repro.simulation.routing:PrefixAffinityRouter.route",
    )),
    ("cluster.admit", "cluster", ("repro.cluster.admission:AdmissionPolicy.admit",)),
    ("sched.select", "sched", (
        "repro.core.scheduler:SRJFScheduler.select",
        "repro.core.scheduler:FCFSScheduler.select",
    )),
    ("sched.submit", "sched", ("repro.core.scheduler:SRJFScheduler.on_submit",)),
    ("engine.submit", "engine", ("repro.core.engine:EngineInstance.submit",)),
    ("engine.advance", "engine", ("repro.core.engine:EngineInstance.advance_to",)),
    ("engine.control", "engine", (
        "repro.core.engine:EngineInstance.cancel",
        "repro.core.engine:EngineInstance.crash",
    )),
    ("engine.latency_model", "engine", ("repro.model.latency:LatencyModel.prefill_time",)),
    ("hash", "hash", ("repro.workloads.trace:TokenSequence.block_hashes",)),
    ("kv.tree.match", "kv.tree", (
        "repro.kvcache.prefix_tree:RadixPrefixCache.match",
        "repro.kvcache.prefix_tree:RadixPrefixCache.match_length",
    )),
    ("kv.tree.insert", "kv.tree", ("repro.kvcache.prefix_tree:RadixPrefixCache.insert",)),
    ("kv.tree.evict", "kv.tree", ("repro.kvcache.prefix_tree:RadixPrefixCache.evict_blocks",)),
    ("kv.tree.pin", "kv.tree", ("repro.kvcache.prefix_tree:RadixPrefixCache.pin_prefix",)),
    ("kv.tree.unpin", "kv.tree", ("repro.kvcache.prefix_tree:RadixPrefixCache.unpin",)),
    ("kv.alloc", "kv.alloc", (
        "repro.kvcache.allocator:BlockAllocator.allocate",
        "repro.kvcache.allocator:BlockAllocator.allocate_many",
        "repro.kvcache.allocator:BlockAllocator.free",
        "repro.kvcache.allocator:BlockAllocator.free_many",
    )),
    ("kv.manager.lookup", "kv.manager", (
        "repro.kvcache.manager:KVCacheManager.lookup",
        "repro.kvcache.manager:KVCacheManager.lookup_from",
        "repro.kvcache.manager:KVCacheManager.lookup_offloaded",
        "repro.kvcache.manager:KVCacheManager.lookup_with_offload",
        "repro.kvcache.manager:KVCacheManager.lookup_with_tiers",
    )),
    ("kv.manager.exec", "kv.manager", (
        "repro.kvcache.manager:KVCacheManager.begin_execution",
        "repro.kvcache.manager:KVCacheManager.finish_execution",
        "repro.kvcache.manager:KVCacheManager.fetch_tiers",
        "repro.kvcache.manager:KVCacheManager.prefetch_tiers",
        "repro.kvcache.manager:KVCacheManager.drain",
    )),
    ("tiers.lookup", "tiers", ("repro.kvcache.tiers.store:TieredPrefixStore.lookup",)),
    ("tiers.fetch", "tiers", ("repro.kvcache.tiers.store:TieredPrefixStore.fetch",)),
    ("tiers.commit", "tiers", ("repro.kvcache.tiers.store:TieredPrefixStore.commit",)),
    ("tiers.prefetch", "tiers", ("repro.kvcache.tiers.store:TieredPrefixStore.prefetch",)),
    ("tiers.other", "tiers", (
        "repro.kvcache.tiers.store:TieredPrefixStore.warm_restore",
        "repro.kvcache.tiers.store:TieredPrefixStore.reclaim",
        "repro.kvcache.tiers.store:TieredPrefixStore.accept_overflow",
        "repro.kvcache.tiers.store:TieredPrefixStore.drain",
        "repro.kvcache.tiers.store:TieredPrefixStore._on_l1_evict",
        "repro.kvcache.tiers.store:TieredPrefixStore._on_host_evict",
        "repro.kvcache.offload:CPUOffloadStore.store",
        "repro.kvcache.offload:CPUOffloadStore.load",
        "repro.kvcache.offload:CPUOffloadStore.match_length",
        "repro.kvcache.offload:CPUOffloadStore.discard",
        "repro.kvcache.tiers.cluster_store:ClusterPrefixStore.publish",
        "repro.kvcache.tiers.cluster_store:ClusterPrefixStore.fetch_block",
        "repro.kvcache.tiers.cluster_store:ClusterPrefixStore.discard_owned",
        "repro.kvcache.tiers.cluster_store:ClusterPrefixStore.match_length",
    )),
    ("resilience.timers", "resilience", ("repro.cluster.fleet:Fleet.apply_policy_timers",)),
    ("resilience.faults", "resilience", ("repro.cluster.fleet:Fleet.apply_fault",)),
    ("resilience.hooks", "resilience", (
        "repro.cluster.fleet:Fleet._policy_on_submit",
        "repro.cluster.fleet:Fleet._policy_admit",
        "repro.cluster.fleet:Fleet._policy_track",
        "repro.cluster.fleet:Fleet._policy_finish",
        "repro.cluster.fleet:Fleet._policy_on_evacuated",
        "repro.resilience.policy:HealthAwareRouter.route",
    )),
    ("obs.emit", "obs", ("repro.obs.recorder:TraceRecorder.emit",)),
    ("obs.sample", "obs", ("repro.obs.recorder:TraceRecorder.maybe_sample",)),
    ("obs.other", "obs", (
        "repro.obs.recorder:TraceRecorder.finalize",
        "repro.obs.recorder:TraceRecorder.freeze",
    )),
    ("results", "results", (
        "repro.simulation.metrics:summarize_finished",
        "repro.simulation.metrics:summarize_fleet",
        "repro.simulation.server:ServingSystem.cache_stats",
        "repro.cluster.fleet:Fleet.cache_stats",
        "repro.cluster.fleet:Fleet.tier_summary",
        "repro.cluster.fleet:Fleet.replica_reports",
        "repro.cluster.fleet:Fleet.resilience_summary",
    )),
)

#: Program layers in report order; ``kv`` is the sum of its three parts.
LAYERS = ("setup", "simulation", "cluster", "sched", "engine", "hash",
          "kv.tree", "kv.alloc", "kv.manager", "tiers", "resilience", "obs")

#: Groups whose per-call inclusive latency is reported as a p99.
INCLUSIVE_P99 = ("sched.select", "kv.tree.match")

#: The per-layer metrics, by name, with their units (BENCHMARK.json order).
METRICS = (
    ("setup.import_s", "s"), ("setup.workload_s", "s"), ("setup.build_s", "s"),
    ("setup.engines_built", "count"),
    ("simulation.self_s", "s"), ("simulation.events", "count"),
    ("simulation.queue_ops", "count"),
    ("cluster.self_s", "s"), ("cluster.submits", "count"),
    ("cluster.route.calls", "count"), ("cluster.route.self_s", "s"),
    ("cluster.admit.calls", "count"), ("cluster.shed", "count"),
    ("sched.self_s", "s"), ("sched.decisions", "count"),
    ("sched.select.p99_us", "us"), ("sched.queue_len_mean", "requests"),
    ("sched.probes", "count"), ("sched.calibrations", "count"),
    ("sched.calib_useful_ratio", "ratio"),
    ("engine.self_s", "s"), ("engine.submits", "count"),
    ("engine.advances", "count"), ("engine.latency_model.calls", "count"),
    ("hash.self_s", "s"), ("hash.calls", "count"),
    ("kv.self_s", "s"), ("kv.tree.self_s", "s"), ("kv.tree.match.calls", "count"),
    ("kv.tree.match.p99_us", "us"), ("kv.tree.insert.calls", "count"),
    ("kv.tree.evict.calls", "count"), ("kv.tree.pin.calls", "count"),
    ("kv.tree.block_hits", "count"), ("kv.tree.block_misses", "count"),
    ("kv.tree.insertions", "count"), ("kv.tree.evictions", "count"),
    ("kv.alloc.self_s", "s"), ("kv.alloc.calls", "count"),
    ("kv.manager.self_s", "s"), ("kv.manager.lookups", "count"),
    ("kv.token_hit_ratio", "ratio"),
    ("tiers.self_s", "s"), ("tiers.lookups", "count"), ("tiers.fetches", "count"),
    ("tiers.commits", "count"), ("tiers.prefetches", "count"),
    ("tiers.host_hit_ratio", "ratio"), ("tiers.cluster_hit_ratio", "ratio"),
    ("tiers.peer_fetches", "count"), ("tiers.demotions", "count"),
    ("resilience.self_s", "s"), ("resilience.timer_calls", "count"),
    ("resilience.faults", "count"), ("resilience.retries", "count"),
    ("resilience.hedges", "count"), ("resilience.hedge_win_ratio", "ratio"),
    ("resilience.deadline_missed", "count"),
    ("obs.self_s", "s"), ("obs.emits", "count"), ("obs.samples", "count"),
    ("trace.attributed_share", "ratio"), ("trace.overhead_ratio", "ratio"),
)


class Group:
    """Aggregates of one group of wrapped entry points."""

    __slots__ = ("name", "layer", "calls", "self_s", "own", "inclusive")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.own = array("d")
        self.inclusive = array("d") if name in INCLUSIVE_P99 else None


def _p99_us(samples) -> float:
    if not len(samples):
        return 0.0
    return float(np.percentile(np.frombuffer(samples, dtype=np.float64), 99)) * 1e6


class Tracer:
    """Wraps every target of :data:`GROUPS` and accumulates self times."""

    def __init__(self) -> None:
        self.groups = {name: Group(name, layer) for name, layer, _ in GROUPS}
        # Frames are [inclusive time of wrapped calls nested in it, group];
        # the bottom frame stands for everything outside any wrapped call.
        self._stack = [[0.0, None]]
        self._started = time.perf_counter()
        self.probes = 0
        self.calibrations = 0
        self.recalibrations = 0
        self.useful_recalibrations = 0
        self.select_queue_total = 0
        self.lease_tokens = 0
        self.lease_cached_tokens = 0
        self.events = 0
        self.attributed_s = 0.0
        self.missing: list[str] = []
        self.fleet_results = []
        self.trees = []

    # ---------------------------------------------------------- wrappers

    def _timed(self, fn, group: Group, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter
        own = group.own
        inclusive = group.inclusive

        def traced(*args, **kwargs):
            if stack[-1][1] is group:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [0.0, group]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                group.calls += 1
                mine = elapsed - frame[0]
                group.self_s += mine
                own.append(mine)
                if inclusive is not None:
                    inclusive.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self, target: str):
        """Extra per-call bookkeeping for the targets that need it."""
        if target.endswith(":SRJFScheduler.select") or target.endswith(":FCFSScheduler.select"):
            def before(args):
                self.select_queue_total += len(args[1])
            return before, None
        if target.endswith(":KVCacheManager.begin_execution"):
            def after(args, lease):
                self.lease_tokens += lease.num_tokens
                self.lease_cached_tokens += lease.cached_tokens
            return None, after
        if target in ("repro.simulation.simulator:simulate",
                      "repro.simulation.simulator:simulate_fleet"):
            marks = []

            def before(args):
                marks.append(self._program_self())

            def after(args, result):
                self.attributed_s += self._program_self() - marks.pop()
                self.events += result.num_events
                if hasattr(result, "fleet"):
                    self.fleet_results.append(result)
            return before, after
        return None, None

    def _program_self(self) -> float:
        return sum(g.self_s for g in self.groups.values() if g.layer != "results")

    @staticmethod
    def _patch_function(original, wrapped) -> None:
        """Rebind ``original`` in every loaded module that imported it."""
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", {})
            for name, value in list(namespace.items()):
                if value is original:
                    namespace[name] = wrapped

    def install(self) -> None:
        """Wrap every target; call once, after the workload's imports.

        A target the program no longer has is skipped and listed in
        :attr:`missing`, so a refactor that renames an entry point shows up
        as a zero count and a self-test failure rather than a crash.
        """
        for name, _layer, targets in GROUPS:
            group = self.groups[name]
            for target in targets:
                module_name, attr_path = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(target)
                    continue
                before, after = self._hooks(target)
                if "." not in attr_path:
                    fn = vars(module).get(attr_path)
                    if fn is None:
                        self.missing.append(target)
                        continue
                    self._patch_function(fn, self._timed(fn, group, before, after))
                    continue
                class_name, attr = attr_path.split(".")
                classes = [
                    value for key, value in vars(module).items()
                    if isinstance(value, type) and value.__module__ == module_name
                    and attr in vars(value) and class_name in ("*", key)
                ]
                if not classes:
                    self.missing.append(target)
                for cls in classes:
                    setattr(cls, attr, self._timed(vars(cls)[attr], group, before, after))
        self._install_counters()

    def _install_counters(self) -> None:
        from repro.core.request_state import EngineRequest
        from repro.kvcache.prefix_tree import RadixPrefixCache

        calibration = vars(EngineRequest).get("calibration")
        store_calibration = vars(EngineRequest).get("store_calibration")
        tree_init = vars(RadixPrefixCache).get("__init__")

        def probe(request, cache_version):
            self.probes += 1
            return calibration(request, cache_version)

        def store(request, cache_version, cached_tokens, score):
            self.calibrations += 1
            previous = request.last_calibration()
            if previous is not None:
                self.recalibrations += 1
                if previous[1] != cached_tokens:
                    self.useful_recalibrations += 1
            return store_calibration(request, cache_version, cached_tokens, score)

        def register(tree, *args, **kwargs):
            tree_init(tree, *args, **kwargs)
            self.trees.append(tree)

        for cls, attr, original, wrapper in (
            (EngineRequest, "calibration", calibration, probe),
            (EngineRequest, "store_calibration", store_calibration, store),
            (RadixPrefixCache, "__init__", tree_init, register),
        ):
            if original is None:
                self.missing.append(f"{cls.__module__}:{cls.__name__}.{attr}")
            else:
                setattr(cls, attr, wrapper)

    # ----------------------------------------------------------- summary

    def _layer_self(self, layer: str) -> float:
        return sum(g.self_s for g in self.groups.values() if g.layer == layer)

    def table(self, import_s: float) -> list[dict]:
        """Per-layer rows: calls, self seconds, share of traced wall, p99."""
        total = time.perf_counter() - self._started + import_s
        rows = []
        for layer in LAYERS + ("results",):
            groups = [g for g in self.groups.values() if g.layer == layer]
            self_s = sum(g.self_s for g in groups)
            if layer == "setup":
                self_s += import_s
            own = array("d")
            for g in groups:
                own.extend(g.own)
            rows.append({"layer": layer, "calls": sum(g.calls for g in groups),
                         "self_s": self_s, "share": self_s / total,
                         "p99_us": _p99_us(own)})
        other = self._stack[0][0]
        root_self = total - import_s - other
        rows.append({"layer": "other", "calls": 0, "self_s": root_self,
                     "share": root_self / total, "p99_us": 0.0})
        return rows

    def metrics(self, *, import_s: float, sim_wall_s: float) -> dict:
        """The per-layer metrics this run measured (no overhead ratio)."""
        groups = self.groups
        tree_stats = {"block_hits": 0, "block_misses": 0,
                      "insertions": 0, "evictions": 0}
        for tree in self.trees:
            for key, value in tree.stats.items():
                tree_stats[key] += value
        shed = retries = hedges = hedge_wins = deadline_missed = 0
        peer_fetches = demotions = 0
        tier_tokens = host_tokens = cluster_tokens = 0
        for result in self.fleet_results:
            summary = result.fleet
            shed += summary.num_shed
            if summary.tiers is not None:
                tier_tokens += summary.tiers.tokens_total
                host_tokens += summary.tiers.tokens_hit_host
                cluster_tokens += summary.tiers.tokens_hit_cluster
                demotions += summary.tiers.demoted_blocks
                if summary.tiers.cluster is not None:
                    peer_fetches += summary.tiers.cluster["peer_fetched_blocks"]
            if summary.resilience is not None:
                retries += summary.resilience.num_retried
                policy = summary.resilience.policy or {}
                hedges += policy.get("num_hedges", 0)
                hedge_wins += policy.get("num_hedge_wins", 0)
                deadline_missed += policy.get("num_deadline_missed", 0)
        loop = self._layer_self
        kv_self = loop("kv.tree") + loop("kv.alloc") + loop("kv.manager")
        decisions = groups["sched.select"].calls
        return {
            "setup.import_s": import_s,
            "setup.workload_s": groups["setup.workload"].self_s,
            "setup.build_s": groups["setup.build"].self_s + groups["setup.engine"].self_s,
            "setup.engines_built": groups["setup.engine"].calls,
            "simulation.self_s": loop("simulation"),
            "simulation.events": self.events,
            "simulation.queue_ops": groups["simulation.queue"].calls,
            "cluster.self_s": loop("cluster"),
            "cluster.submits": groups["cluster.submit"].calls,
            "cluster.route.calls": groups["cluster.route"].calls,
            "cluster.route.self_s": groups["cluster.route"].self_s,
            "cluster.admit.calls": groups["cluster.admit"].calls,
            "cluster.shed": shed,
            "sched.self_s": loop("sched"),
            "sched.decisions": decisions,
            "sched.select.p99_us": _p99_us(groups["sched.select"].inclusive),
            "sched.queue_len_mean": self.select_queue_total / decisions if decisions else 0.0,
            "sched.probes": self.probes,
            "sched.calibrations": self.calibrations,
            "sched.calib_useful_ratio": (
                self.useful_recalibrations / self.recalibrations
                if self.recalibrations else 0.0
            ),
            "engine.self_s": loop("engine"),
            "engine.submits": groups["engine.submit"].calls,
            "engine.advances": groups["engine.advance"].calls,
            "engine.latency_model.calls": groups["engine.latency_model"].calls,
            "hash.self_s": loop("hash"),
            "hash.calls": groups["hash"].calls,
            "kv.self_s": kv_self,
            "kv.tree.self_s": loop("kv.tree"),
            "kv.tree.match.calls": groups["kv.tree.match"].calls,
            "kv.tree.match.p99_us": _p99_us(groups["kv.tree.match"].inclusive),
            "kv.tree.insert.calls": groups["kv.tree.insert"].calls,
            "kv.tree.evict.calls": groups["kv.tree.evict"].calls,
            "kv.tree.pin.calls": groups["kv.tree.pin"].calls,
            "kv.tree.block_hits": tree_stats["block_hits"],
            "kv.tree.block_misses": tree_stats["block_misses"],
            "kv.tree.insertions": tree_stats["insertions"],
            "kv.tree.evictions": tree_stats["evictions"],
            "kv.alloc.self_s": loop("kv.alloc"),
            "kv.alloc.calls": groups["kv.alloc"].calls,
            "kv.manager.self_s": loop("kv.manager"),
            "kv.manager.lookups": groups["kv.manager.lookup"].calls,
            "kv.token_hit_ratio": (
                self.lease_cached_tokens / self.lease_tokens if self.lease_tokens else 0.0
            ),
            "tiers.self_s": loop("tiers"),
            "tiers.lookups": groups["tiers.lookup"].calls,
            "tiers.fetches": groups["tiers.fetch"].calls,
            "tiers.commits": groups["tiers.commit"].calls,
            "tiers.prefetches": groups["tiers.prefetch"].calls,
            "tiers.host_hit_ratio": host_tokens / tier_tokens if tier_tokens else 0.0,
            "tiers.cluster_hit_ratio": cluster_tokens / tier_tokens if tier_tokens else 0.0,
            "tiers.peer_fetches": peer_fetches,
            "tiers.demotions": demotions,
            "resilience.self_s": loop("resilience"),
            "resilience.timer_calls": groups["resilience.timers"].calls,
            "resilience.faults": groups["resilience.faults"].calls,
            "resilience.retries": retries,
            "resilience.hedges": hedges,
            "resilience.hedge_win_ratio": hedge_wins / hedges if hedges else 0.0,
            "resilience.deadline_missed": deadline_missed,
            "obs.self_s": loop("obs"),
            "obs.emits": groups["obs.emit"].calls,
            "obs.samples": groups["obs.sample"].calls,
            # Program-layer self time accrued inside the simulate calls (their
            # inclusive time minus the nested end-of-run summaries), over the
            # simulate wall measured outside the wrappers.
            "trace.attributed_share": (
                self.attributed_s / sim_wall_s if sim_wall_s > 0 else 0.0
            ),
        }
