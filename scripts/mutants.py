#!/usr/bin/env python
"""Seeded mutants, each of which the mutant test set must kill.

``make mutants`` entry point.  The mutants break the KV layer (the radix
tree's runs, their splits and tail-first eviction, its prefix bisection, the
manager and the block allocator's id pool), the block-hash run memo, the
SRJF scheduler's key-heap pick, the tier change feeds the SRJF
scheduler's frontier index reads, the batched demotion cascade, a fetch's
one-pass tail staging and the recorder's batch span recording (sequence
numbers and block counters), the tier promotion threshold (its value for
``always`` and its comparisons in fetch and commit), queue-depth
admission's bound, the hedge policy's sorted latency window, the
percentile lerp the hedge delay shares with the latency summaries, the
router's replica-set hook, the decoupled shard engine's pre-routing and
replica names, the scenario runner's unsharded run of a kept fleet, the
event loop's pause of the cyclic garbage collector, a spec model's checks
on construction (its field checks and its cross-field rules), and the
scenario parser's tenant build (each tenant's generator and arrival process
at the tenant's own path, and its refusal of a repeated tenant name).  A
mutant is one or more exact source-text replacements in a module under
``src/``.  For the unmutated tree and then for each mutant, the script
copies ``src/``, ``tests/`` and the cookbook scenarios
(``examples/scenarios/``, which the KV-invariant and export-digest tests
run) into a temporary directory, applies the mutant there
and runs the mutant test set (:data:`TESTS`, tier-1 hypothesis profile
without shrinking, stopping at the first failure), the tests each mutant
names as its killers first.  The unmutated copy must pass; a mutant is
killed when a test fails.

Prints one line per mutant and the mutation score.  Exits 1 when a mutant
survives, when a mutant's source text is not found exactly once (a refactor
moved it: update the mutant), or when the unmutated copy fails.  ``--mutant
NAME`` (repeatable) runs the unmutated copy and only the named mutants; an
unknown name exits 2 and lists the valid ones.

Usage (from the repository root)::

    python scripts/mutants.py [--mutant NAME ...]
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TREE = "src/repro/kvcache/prefix_tree.py"
ALLOCATOR = "src/repro/kvcache/allocator.py"
MANAGER = "src/repro/kvcache/manager.py"
HOST = "src/repro/kvcache/offload.py"
HASHES = "src/repro/workloads/trace.py"
CLUSTER = "src/repro/kvcache/tiers/cluster_store.py"
TIERS = "src/repro/kvcache/tiers/store.py"
SPEC_MODELS = "src/repro/spec/models.py"
SPEC_CORE = "src/repro/spec/core.py"
ADMISSION = "src/repro/cluster/admission.py"
RECORDER = "src/repro/obs/recorder.py"
SCHEDULER = "src/repro/core/scheduler.py"
HEDGE = "src/repro/resilience/policy.py"
METRICS = "src/repro/simulation/metrics.py"
ROUTING = "src/repro/simulation/routing.py"
SHARDED = "src/repro/simulation/sharded.py"
SCENARIO = "src/repro/simulation/scenario.py"
SIMULATOR = "src/repro/simulation/simulator.py"
SCENARIOS = "examples/scenarios"

CACHE_ORACLE = "tests/test_prefix_cache_oracle.py"
TREE_TESTS = "tests/test_kvcache_prefix_tree.py"
SCHEDULER_TESTS = "tests/test_scheduler.py"
ALLOCATOR_TESTS = "tests/test_kvcache_allocator.py"
COLLECTOR_TESTS = "tests/test_event_loop_gc.py"
TIER_TESTS = "tests/test_kvcache_tiers.py"
MANAGER_TESTS = "tests/test_kvcache_manager.py"
KV_INVARIANTS = "tests/test_kv_invariants.py"
SCHEDULER_ORACLE = "tests/test_scheduler_oracle.py"
ROUTING_TESTS = "tests/test_simulation_routing.py"
RESILIENCE_TESTS = "tests/test_resilience.py"
PERCENTILE_TEST = (
    "tests/test_simulation_metrics.py::test_percentile_is_numpys_linear_percentile_bit_for_bit"
)
CASCADE_ORACLE = "tests/test_tier_cascade_oracle.py"
RECORDER_TESTS = "tests/test_obs_recorder.py"
EXPORT_DIGESTS = "tests/test_obs_export_digests.py"
SHARD_IDENTITY = "tests/test_sharded_identity.py::test_decoupled_parallel_matches_unsharded"
KEPT_FLEET = "tests/test_sharded_identity.py::test_a_kept_fleet_is_the_simulated_one"
RUN_MEMO_TEST = "tests/test_block_hashes.py::test_a_run_is_keyed_by_its_parent_hash"
ADMISSION_TEST = "tests/test_cluster_fleet.py::test_admission_sheds_at_the_bound_and_not_below"
SPEC_CONSTRUCTION = "tests/test_spec_construction.py"

#: The tests every mutant must fail.
TESTS = (
    CACHE_ORACLE,
    TREE_TESTS,
    TIER_TESTS,
    MANAGER_TESTS,
    KV_INVARIANTS,
    "tests/test_properties.py",
    SCHEDULER_ORACLE,
    SCHEDULER_TESTS,
    ROUTING_TESTS,
    RESILIENCE_TESTS,
    PERCENTILE_TEST,
    CASCADE_ORACLE,
    EXPORT_DIGESTS,
    SHARD_IDENTITY,
    KEPT_FLEET,
    ALLOCATOR_TESTS,
    COLLECTOR_TESTS,
    RECORDER_TESTS,
    RUN_MEMO_TEST,
    ADMISSION_TEST,
    SPEC_CONSTRUCTION,
)


#: Appended to the copied ``tests/conftest.py``: a kill needs one failing
#: example, not a minimal one, and shrinking it can take minutes.
NO_SHRINK = """
from hypothesis import Phase as _Phase

_phases = [phase for phase in _Phase if phase is not _Phase.shrink]
for _name in ("fuzz-run", "oracle-run"):
    settings.register_profile(_name, settings.get_profile(_name), phases=_phases)
settings.register_profile("no-shrink", phases=_phases)
settings.load_profile("no-shrink")
"""


@dataclass(frozen=True)
class Mutant:
    """Exact ``(source text, replacement)`` edits to one file.

    ``kills`` names the :data:`TESTS` entries expected to kill the mutant;
    they run first, so a killed mutant stops at them.
    """

    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    kills: tuple[str, ...] = ()


MUTANTS = (
    # An evicted run's last_access does not fold into its parent.
    Mutant("no-stamp-fold", TREE, (
        ("                parent.touch(run.last_access)\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # An insert's own evictions may take the tail of its path.
    Mutant("insert-pins-no-tail", TREE, (
        ("        if protect is not None:\n"
         "            protect.pin()\n"
         "        try:\n"
         "            self.evict_blocks(shortfall)\n"
         "        finally:\n"
         "            if protect is not None:\n"
         "                protect.unpin()\n",
         "        self.evict_blocks(shortfall)\n"),
    ), kills=(CACHE_ORACLE,)),
    # An eviction pass frees one block fewer than the pool is short of.
    Mutant("shortfall-off-by-one", TREE, (
        ("self.evict_blocks(shortfall)", "self.evict_blocks(shortfall - 1)"),
    ), kills=(CACHE_ORACLE,)),
    # The run an insert creates gets no LRU-heap entry.
    Mutant("insert-pushes-no-leaf-entry", TREE, (
        ("        # The new run is a leaf, and so a candidate.\n"
         "        self._note_candidate(run)\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # An evicted run's parent keeps counting it as a child.
    Mutant("child-count-not-decremented", TREE, (
        ("                parent.num_children -= 1\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # An insert does not record the watched hashes it adds.
    Mutant("insert-records-no-change", TREE, (
        ("            nodes[content_hash] = run\n"
         "            if content_hash in watched:\n"
         "                changed.add(content_hash)\n",
         "            nodes[content_hash] = run\n"),
    ), kills=(SCHEDULER_ORACLE,)),
    # A match stamps no block.
    Mutant("match-stamps-nothing", TREE, (
        ("        frontier.touch(now)\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # An insert does not stamp the deepest block already cached.
    Mutant("insert-leaves-frontier-unstamped", TREE, (
        ("        if tail is not None:\n            tail.touch(now)\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # A lease pins its first cached block instead of the frontier.
    Mutant("lease-pins-first-block", MANAGER, (
        ("pin_prefix(hashes, match.num_blocks)",
         "pin_prefix(hashes, min(match.num_blocks, 1))"),
    ), kills=(MANAGER_TESTS,)),
    # An aborted lease (a cancel or a crash) commits its KV like a finish.
    Mutant("abort-commits", MANAGER, (
        ("        if not self._enable_prefix_caching or not commit:\n",
         "        if not self._enable_prefix_caching:\n"),
    ), kills=(MANAGER_TESTS,)),
    # A commit's overflow never spills into the flat offload store.
    Mutant("offload-overflow-dropped", MANAGER, (
        ("        if self._offload is not None:\n"
         "            overflow = lease.block_hashes[resident_blocks:]\n",
         "        if False:\n"
         "            overflow = lease.block_hashes[resident_blocks:]\n"),
    ), kills=(MANAGER_TESTS,)),
    # A scratch reservation frees one block fewer than it needs.
    Mutant("scratch-room-short", MANAGER, (
        ("self._cache.make_room(needed)", "self._cache.make_room(needed - 1)"),
    ), kills=(MANAGER_TESTS,)),
    # The evictable count ignores a pinned frontier's ancestor runs.
    Mutant("evictable-count-ignores-ancestors", TREE, (
        ("                while run is not None and run not in protected:\n"
         "                    protected.add(run)\n"
         "                    run = run.parent\n",
         "                protected.add(run)\n"),
    ), kills=(CACHE_ORACLE,)),
    # LRU-heap keys order by creation sequence before last access.
    Mutant("heap-key-swapped", TREE, (
        ("heapq.heappush(self._lru_heap, (run.last_access, run.seq, run))",
         "heapq.heappush(self._lru_heap, (run.seq, run.last_access, run))"),
        ("            last_access, seq, run = entry\n",
         "            seq, last_access, run = entry\n"),
        ("heapq.heappush(heap, (run.last_access, seq, run))",
         "heapq.heappush(heap, (seq, run.last_access, run))"),
    ), kills=(CACHE_ORACLE,)),
    # A host-tier LRU eviction is not recorded.
    Mutant("host-evict-records-no-change", HOST, (
        ("                if victim in watched:\n"
         "                    changed.add(victim)\n", ""),
    ), kills=(SCHEDULER_ORACLE,)),
    # A cluster publish is not recorded: a peer's publish goes unseen.
    Mutant("cluster-publish-records-no-change", CLUSTER, (
        ("            blocks[content_hash] = replica\n"
         "            for watched, changed in subscribers:\n"
         "                if content_hash in watched:\n"
         "                    changed.add(content_hash)\n",
         "            blocks[content_hash] = replica\n"),
    ), kills=(SCHEDULER_ORACLE,)),
    # A cluster entry its owner reclaims is not recorded.
    Mutant("discard-owned-records-no-change", CLUSTER, (
        ("                del blocks[content_hash]\n"
         "                for watched, changed in subscribers:\n"
         "                    if content_hash in watched:\n"
         "                        changed.add(content_hash)\n",
         "                del blocks[content_hash]\n"),
    ), kills=(TIER_TESTS,)),
    # The manager's feed misses a brownout's transfer-cost multiplier change.
    Mutant("feed-ignores-multiplier", MANAGER, (
        ("state = (host_cost, cluster_cost, available)",
         "state = (1.0, 1.0, available)"),
    ), kills=(SCHEDULER_ORACLE,)),
    # A tiered request watches only H[m-1] and H[m], not its continuation.
    Mutant("tiered-watch-frontier-only", SCHEDULER, (
        ("frontier = hashes[max(matched - 1, 0):cached // block_size + 1]",
         "frontier = hashes[max(matched - 1, 0):matched + 1]"),
    ), kills=(SCHEDULER_ORACLE,)),
    # On a wrap the sorted hedge window drops the newest sample, not the oldest.
    Mutant("hedge-window-drops-newest", HEDGE, (
        ("del ordered[bisect.bisect_left(ordered, samples[0])]",
         "del ordered[bisect.bisect_left(ordered, samples[-1])]"),
    ), kills=(RESILIENCE_TESTS,)),
    # The percentile lerp the hedge delay and the latency summaries share
    # always interpolates up from the lower neighbour.
    Mutant("hedge-lerp-one-sided", METRICS, (
        ("    if gamma >= 0.5:\n"
         "        return high - step * (1 - gamma)\n"
         "    return low + step * gamma\n",
         "    return low + step * gamma\n"),
    ), kills=(PERCENTILE_TEST, RESILIENCE_TESTS)),
    # An L1 eviction pass is charged one batch transfer, one link latency in
    # all, instead of one one-block transfer per demoted block.
    Mutant("l1-demotion-charged-per-batch", TIERS, (
        ("            self._demote(len(hashes) + published, stored, host.transfer_time(1))\n",
         "            self._demote(len(hashes) + published, 0, 0.0)\n"
         "            self._demote_seconds += host.transfer_time(stored)\n"),
    ), kills=(TIER_TESTS,)),
    # The host store loses the last LRU victim of each call: it is neither
    # published nor counted as dropped.
    Mutant("host-hook-drops-last-victim", HOST, (
        ("        return stored, victims\n",
         "        return stored, victims[:-1]\n"),
    ), kills=(TIER_TESTS,)),
    # A batch of span events does not advance its (key, kind) sequence.
    Mutant("emit-many-keeps-sequence", RECORDER, (
        ("            self._seq[slot] = seq + count\n", ""),
    ), kills=(CASCADE_ORACLE,)),
    # A batch of block-counted span events adds its block counter once, not
    # once per event.
    Mutant("emit-many-counts-once", RECORDER, (
        ('self._inc(block_counter, (), attrs.get("blocks", 1) * count)',
         'self._inc(block_counter, (), attrs.get("blocks", 1))'),
    ), kills=(RECORDER_TESTS,)),
    # A fetch stages its tail's cluster hits with one store call after the
    # pass, so a staged block's host victim is never re-checked.
    Mutant("fetch-stages-tail-in-one-store", TIERS, (
        ("        for content_hash in tail:\n"
         "            if content_hash in in_host:\n"
         "                host.refresh(content_hash)\n"
         "            elif content_hash in in_cluster:\n"
         "                victims = host.offload((content_hash,))[1]\n"
         "                if victims:\n"
         "                    published += self._on_host_evict(victims)\n"
         "                cluster.discard_owned(replica, content_hash)\n",
         "        staged = []\n"
         "        for content_hash in tail:\n"
         "            if content_hash in in_host:\n"
         "                host.refresh(content_hash)\n"
         "            elif content_hash in in_cluster:\n"
         "                staged.append(content_hash)\n"
         "        victims = host.offload(staged)[1]\n"
         "        if victims:\n"
         "            published += self._on_host_evict(victims)\n"
         "        if staged:\n"
         "            cluster.discard_owned(replica, *staged)\n"),
    ), kills=(CASCADE_ORACLE,)),
    # The staging pass drops a staged block's own cluster copy before it
    # publishes the block's host victim, so a full cluster keeps an entry
    # the publish would have evicted.
    Mutant("staging-discards-before-publish", TIERS, (
        ("                victims = host.offload((content_hash,))[1]\n"
         "                if victims:\n"
         "                    published += self._on_host_evict(victims)\n"
         "                cluster.discard_owned(replica, content_hash)\n",
         "                cluster.discard_owned(replica, content_hash)\n"
         "                victims = host.offload((content_hash,))[1]\n"
         "                if victims:\n"
         "                    published += self._on_host_evict(victims)\n"),
    ), kills=(CASCADE_ORACLE,)),
    # A user-id router keeps the assignments of replicas that have left.
    Mutant("router-keeps-stale-assignments", ROUTING, (
        ("        self._assignments = {\n"
         "            user: index for user, index in self._assignments.items()\n"
         "            if index < self.num_instances\n"
         "        }\n", ""),
    ), kills=(ROUTING_TESTS, KV_INVARIANTS)),
    # A heap entry older than its run's last access is evicted as is.
    Mutant("stale-entry-not-rekeyed", TREE, (
        ("            if run.last_access != last_access:\n"
         "                heapq.heappush(heap, (run.last_access, seq, run))\n"
         "                continue\n", ""),
    ), kills=(CACHE_ORACLE,)),
    # A shard's sub-fleet routes every arrival to its first replica.
    Mutant("shard-ignores-pre-route", SHARDED, (
        ("        return self._routes[request.request_id]\n",
         "        return 0\n"),
    ), kills=(SHARD_IDENTITY,)),
    # A shard's replicas keep the sub-fleet's local names.
    Mutant("shard-keeps-local-names", SHARDED, (
        ("            instance.name = name\n", "            pass\n"),
    ), kills=(SHARD_IDENTITY,)),
    # A kept fleet is sharded too, so the fleet it returns never ran.
    Mutant("keep-fleet-runs-sharded", SCENARIO, (
        ("        shards=1 if keep_fleet else spec.shards,\n",
         "        shards=spec.shards,\n"),
    ), kills=(KEPT_FLEET,)),
    # A freed block id never returns to the pool.
    Mutant("free-keeps-id-out-of-pool", ALLOCATOR, (
        ("        self._free_ids.append(block_id)\n", ""),
    ), kills=(ALLOCATOR_TESTS,)),
    # An allocated block id is handed out without being recorded.
    Mutant("allocate-records-no-id", ALLOCATOR, (
        ("        self._allocated.add(block_id)\n", ""),
    ), kills=(ALLOCATOR_TESTS,)),
    # The event loop leaves the collector paused when it ends.
    Mutant("loop-leaves-collector-paused", SIMULATOR, (
        ("        if enabled:\n"
         "            gc.enable()\n", "        pass\n"),
    ), kills=(COLLECTOR_TESTS,)),
    # The SRJF pick trusts the heap key: the first live entry wins, with no
    # exact scoring of the entries within the rounding window.
    Mutant("select-trusts-heap-key", SCHEDULER, (
        ("            if best is not None and key - credit - best_score"
         " > (key + credit) * _WINDOW:\n",
         "            if best is not None:\n"),
    ), kills=(SCHEDULER_TESTS, SCHEDULER_ORACLE)),
    # A popped heap entry is scored without checking that it is still live.
    Mutant("select-keeps-stale-entry", SCHEDULER, (
        ("            if entries.get(request) is not entry:\n"
         "                continue\n", ""),
    ), kills=(SCHEDULER_TESTS, SCHEDULER_ORACLE)),
    # A hinted prefix lookup returns the hint once H[hint-1] is cached,
    # without probing H[hint].
    Mutant("prefix-bisect-trusts-hint", TREE, (
        ("        elif hint < size and block_hashes[hint] in nodes:\n",
         "        elif not hint and hint < size and block_hashes[hint] in nodes:\n"),
    ), kills=(TREE_TESTS, CACHE_ORACLE)),
    # A run left partly evicted by a pass gets no fresh heap entry, so its
    # remaining blocks are never evicted again.
    Mutant("partial-evict-pushes-no-entry", TREE, (
        ("            if hashes:\n"
         "                # Partly evicted: its new tail is a leaf keyed one seq lower.\n"
         "                self._note_candidate(run)\n"
         "                continue\n",
         "            if hashes:\n"
         "                continue\n"),
    ), kills=(TREE_TESTS, CACHE_ORACLE)),
    # A frontier that ends mid-run stamps or pins the run's tail instead of
    # splitting the run there.
    Mutant("mid-run-stamp-splits-nothing", TREE, (
        ("        if keep < len(run.hashes):\n"
         "            return self._split(run, keep)\n"
         "        return run\n",
         "        return run\n"),
    ), kills=(TREE_TESTS, CACHE_ORACLE)),
    # An eviction pass takes a victim run whole, past its count.
    Mutant("evict-takes-whole-run", TREE, (
        ("            taken = min(count - len(victims), len(hashes))\n",
         "            taken = len(hashes)\n"),
    ), kills=(TREE_TESTS, CACHE_ORACLE)),
    # The run memo's key omits the parent hash, so a segment reached at the
    # same offsets after different content reuses another chain's run.
    Mutant("run-memo-key-drops-parent", HASHES, (
        ("                key = (parent, content_id, offset, whole_end, block_size)\n",
         "                key = (content_id, offset, whole_end, block_size)\n"),
    ), kills=(RUN_MEMO_TEST,)),
    # ``always`` promotes at one lower-tier hit, so a commit, which asks with
    # a block's stored hit count, leaves a parked block with no hit parked.
    Mutant("always-needs-one-hit", SPEC_MODELS, (
        ('        if self.promotion == "always":\n'
         "            return 0\n",
         '        if self.promotion == "always":\n'
         "            return 1\n"),
    ), kills=(TIER_TESTS, CASCADE_ORACLE)),
    # A fetch promotes a block one hit after it reaches the threshold (the
    # commit that follows still promotes at the threshold).
    Mutant("promotion-compare-strict", TIERS, (
        ("            if run_unbroken and hits >= promote_at:\n",
         "            if run_unbroken and hits > promote_at:\n"),
    ), kills=(CASCADE_ORACLE, TIER_TESTS)),
    # A commit inserts its whole chain into L1, past tier-resident blocks
    # that have not reached the promotion threshold.
    Mutant("commit-ignores-promote-at", TIERS, (
        ("            if ((content_hash in in_host or content_hash in in_cluster)\n"
         "                    and hit_counts.get(content_hash, 0) < promote_at):\n"
         "                break\n", ""),
    ), kills=(TIER_TESTS, CASCADE_ORACLE)),
    # Admission admits a request while the least-loaded queue is at the bound.
    Mutant("admission-sheds-below-bound", ADMISSION, (
        ("min(queue_depths) >= self.max_queue_depth",
         "min(queue_depths) > self.max_queue_depth"),
    ), kills=(ADMISSION_TEST,)),
    # Building a spec model checks none of its fields.
    Mutant("spec-init-skips-checks", SPEC_CORE, (
        ("    for name, info in model_info.fields.items():\n"
         "        value = getattr(instance, name)\n",
         "    for name, info in {}.items():\n"
         "        value = getattr(instance, name)\n"),
    ), kills=(SPEC_CONSTRUCTION,)),
    # Building a spec model never runs its cross-field rules.
    Mutant("spec-init-skips-cross-field", SPEC_CORE, (
        ('    validate = getattr(instance, "__spec_validate__", None)\n'
         "    if validate is not None:\n"
         "        validate(path)\n", ""),
    ), kills=(SPEC_CONSTRUCTION,)),
    # A tenant's arrival process is built at the process's own
    # arrival_params path, so its errors do not name the tenant.
    Mutant("arrival-params-unchecked", SCENARIO, (
        ('        path=f"{path}.arrival_params",\n', ""),
    ), kills=(SPEC_CONSTRUCTION,)),
    # The same for a tenant's workload generator and its workload_params.
    Mutant("workload-params-unchecked", SCENARIO, (
        ('        path=f"{path}.workload_params",\n', ""),
    ), kills=(SPEC_CONSTRUCTION,)),
    # A scenario parses with two tenants of one name.
    Mutant("duplicate-tenant-names-accepted", SPEC_MODELS, (
        ("            if first < index:\n", "            if first > index:\n"),
    ), kills=(SPEC_CONSTRUCTION,)),
)


def apply(mutant: Mutant, root: Path) -> str | None:
    """Apply ``mutant`` to the tree at ``root``; returns an error if a text is missing."""
    target = root / mutant.path
    text = target.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        found = text.count(old)
        if found != 1:
            first_line = old.strip().splitlines()[0]
            return f"source text found {found} times in {mutant.path}: {first_line!r}"
        text = text.replace(old, new)
    target.write_text(text, encoding="utf-8")
    return None


def ordered_tests(mutant: Mutant | None) -> tuple[str, ...]:
    """:data:`TESTS` with the mutant's killing tests moved to the front.

    Every mutant faces the whole set, so a survivor still runs all of it; the
    unmutated tree runs it in its own order.
    """
    first = () if mutant is None else mutant.kills
    return (*first, *(test for test in TESTS if test not in first))


def run_tests(mutant: Mutant | None) -> tuple[str, str]:
    """Run the mutant test set on a copy of the tree with ``mutant`` applied.

    Returns ``(outcome, detail)``: ``passed`` or ``failed`` with the test
    summary, or ``error`` when the mutant could not be applied or pytest did
    not get to run the tests.
    """
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        shutil.copytree(REPO / "src", root / "src", ignore=ignore)
        shutil.copytree(REPO / "tests", root / "tests", ignore=ignore)
        shutil.copytree(REPO / SCENARIOS, root / SCENARIOS)
        with open(root / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
            conftest.write(NO_SHRINK)
        if mutant is not None:
            error = apply(mutant, root)
            if error is not None:
                return "error", error
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("HYPOTHESIS_PROFILE", None)
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *ordered_tests(mutant)],
            cwd=root, env=env, capture_output=True, text=True,
        )
    lines = completed.stdout.strip().splitlines()
    summary = lines[-1] if lines else completed.stderr.strip()[-200:]
    outcome = {0: "passed", 1: "failed"}.get(completed.returncode, "error")
    return outcome, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mutant", action="append", default=[], metavar="NAME",
                        help="run only this mutant (repeatable; default: every mutant)")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.mutant if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant {', '.join(map(repr, unknown))}; "
                     f"valid names: {', '.join(by_name)}")
    selected = [by_name[name] for name in dict.fromkeys(args.mutant)] or MUTANTS
    outcome, detail = run_tests(None)
    if outcome != "passed":
        print(f"mutants: the unmutated tree does not pass the mutant tests ({detail})")
        return 1
    killed = 0
    for mutant in selected:
        outcome, detail = run_tests(mutant)
        verdict = {"failed": "killed", "passed": "SURVIVED"}.get(outcome, "ERROR")
        killed += verdict == "killed"
        print(f"{verdict:<9}{mutant.name:<36}{detail}", flush=True)
    print(f"mutants: {killed} of {len(selected)} killed")
    return 0 if killed == len(selected) else 1


if __name__ == "__main__":
    sys.exit(main())
