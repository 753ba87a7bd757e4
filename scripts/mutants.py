#!/usr/bin/env python
"""Seeded mutants, each of which the mutant test set must kill.

``make mutants`` entry point.  The mutants break the KV layer, the tier
change feeds the SRJF scheduler's frontier index reads, the batched demotion
cascade and its batch span recording, the hedge policy's sorted latency
window, the router's replica-set hook, and the decoupled shard engine's
pre-routing and replica names.  A mutant is one or more exact
source-text replacements in a module under ``src/``.  For the unmutated tree
and then for each mutant, the script copies ``src/``, ``tests/`` and the
cookbook scenarios (``examples/scenarios/``, which the KV-invariant and
export-digest tests run) into a temporary directory, applies the mutant there
and runs the mutant test set (:data:`TESTS`, tier-1 hypothesis profile
without shrinking).  The unmutated copy must pass; a mutant is killed when a
test fails.

Prints one line per mutant and the mutation score.  Exits 1 when a mutant
survives, when a mutant's source text is not found exactly once (a refactor
moved it: update the mutant), or when the unmutated copy fails.

Usage (from the repository root)::

    python scripts/mutants.py
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
MANAGER = "src/repro/kvcache/manager.py"
HOST = "src/repro/kvcache/offload.py"
CLUSTER = "src/repro/kvcache/tiers/cluster_store.py"
TIERS = "src/repro/kvcache/tiers/store.py"
RECORDER = "src/repro/obs/recorder.py"
SCHEDULER = "src/repro/core/scheduler.py"
HEDGE = "src/repro/resilience/policy.py"
ROUTING = "src/repro/simulation/routing.py"
SHARDED = "src/repro/simulation/sharded.py"
SCENARIOS = "examples/scenarios"

#: The tests every mutant must fail.
TESTS = (
    "tests/test_prefix_cache_oracle.py",
    "tests/test_kvcache_prefix_tree.py",
    "tests/test_kvcache_tiers.py",
    "tests/test_kvcache_manager.py",
    "tests/test_kv_invariants.py",
    "tests/test_properties.py",
    "tests/test_scheduler_oracle.py",
    "tests/test_scheduler.py",
    "tests/test_simulation_routing.py",
    "tests/test_resilience.py",
    "tests/test_tier_cascade_oracle.py",
    "tests/test_obs_export_digests.py",
    "tests/test_sharded_identity.py::test_decoupled_parallel_matches_unsharded",
    "tests/test_sharded_identity.py::test_lockstep_mode_matches_parallel_mode",
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
    """Exact ``(source text, replacement)`` edits to one file."""

    name: str
    path: str
    edits: tuple[tuple[str, str], ...]


MUTANTS = (
    # An evicted leaf's last_access does not fold into its parent.
    Mutant("no-stamp-fold", TREE, (
        ("            parent.block.touch(node.block.last_access)\n", ""),
    )),
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
    )),
    # An eviction pass frees one block fewer than the pool is short of.
    Mutant("shortfall-off-by-one", TREE, (
        ("self.evict_blocks(shortfall)", "self.evict_blocks(shortfall - 1)"),
    )),
    # The leaf an insert leaves gets no LRU-heap entry.
    Mutant("insert-pushes-no-leaf-entry", TREE, (
        ("        self._note_candidate(tail)\n", ""),
    )),
    # An evicted node's parent keeps counting it as a child.
    Mutant("child-count-not-decremented", TREE, (
        ("            parent.num_children -= 1\n", ""),
    )),
    # An insert does not record the watched hashes it adds.
    Mutant("insert-records-no-change", TREE, (
        ("            if content_hash in watched:\n"
         "                changed.add(content_hash)\n", ""),
    )),
    # A match stamps no block.
    Mutant("match-stamps-nothing", TREE, (
        ("        frontier.touch(now)\n", ""),
    )),
    # An insert does not stamp the deepest block already cached.
    Mutant("insert-leaves-frontier-unstamped", TREE, (
        ("        if tail is not None:\n            tail.block.touch(now)\n", ""),
    )),
    # A lease pins its first cached block instead of the frontier.
    Mutant("lease-pins-first-block", MANAGER, (
        ("pin_prefix(hashes, match.num_blocks)",
         "pin_prefix(hashes, min(match.num_blocks, 1))"),
    )),
    # An aborted lease (a cancel or a crash) commits its KV like a finish.
    Mutant("abort-commits", MANAGER, (
        ("        if not self._enable_prefix_caching or not commit:\n",
         "        if not self._enable_prefix_caching:\n"),
    )),
    # A commit's overflow never spills into the flat offload store.
    Mutant("offload-overflow-dropped", MANAGER, (
        ("        if self._offload is not None:\n"
         "            overflow = lease.block_hashes[resident_blocks:]\n",
         "        if False:\n"
         "            overflow = lease.block_hashes[resident_blocks:]\n"),
    )),
    # A scratch reservation frees one block fewer than it needs.
    Mutant("scratch-room-short", MANAGER, (
        ("self._cache.make_room(needed)", "self._cache.make_room(needed - 1)"),
    )),
    # The evictable count ignores a pinned frontier's ancestors.
    Mutant("evictable-count-ignores-ancestors", TREE, (
        ("                while node is not None and node.content_hash not in protected:\n"
         "                    protected.add(node.content_hash)\n"
         "                    node = node.parent\n",
         "                protected.add(node.content_hash)\n"),
    )),
    # LRU-heap keys order by creation sequence before last access.
    Mutant("heap-key-swapped", TREE, (
        ("heapq.heappush(self._lru_heap, (node.block.last_access, node.seq, node))",
         "heapq.heappush(self._lru_heap, (node.seq, node.block.last_access, node))"),
        ("            last_access, _, node = entry\n",
         "            _, last_access, node = entry\n"),
        ("heapq.heappush(heap, (node.block.last_access, node.seq, node))",
         "heapq.heappush(heap, (node.seq, node.block.last_access, node))"),
    )),
    # A host-tier LRU eviction is not recorded.
    Mutant("host-evict-records-no-change", HOST, (
        ("                if victim in watched:\n"
         "                    changed.add(victim)\n", ""),
    )),
    # A cluster publish is not recorded: a peer's publish goes unseen.
    Mutant("cluster-publish-records-no-change", CLUSTER, (
        ("            blocks[content_hash] = replica\n"
         "            for watched, changed in subscribers:\n"
         "                if content_hash in watched:\n"
         "                    changed.add(content_hash)\n",
         "            blocks[content_hash] = replica\n"),
    )),
    # A cluster entry its owner reclaims is not recorded.
    Mutant("discard-owned-records-no-change", CLUSTER, (
        ("                del blocks[content_hash]\n"
         "                for watched, changed in subscribers:\n"
         "                    if content_hash in watched:\n"
         "                        changed.add(content_hash)\n",
         "                del blocks[content_hash]\n"),
    )),
    # The manager's feed misses a brownout's transfer-cost multiplier change.
    Mutant("feed-ignores-multiplier", MANAGER, (
        ("state = (host_cost, cluster_cost, available)",
         "state = (1.0, 1.0, available)"),
    )),
    # A tiered request watches only H[m-1] and H[m], not its continuation.
    Mutant("tiered-watch-frontier-only", SCHEDULER, (
        ("frontier = hashes[max(matched - 1, 0):cached // block_size + 1]",
         "frontier = hashes[max(matched - 1, 0):matched + 1]"),
    )),
    # On a wrap the sorted hedge window drops the newest sample, not the oldest.
    Mutant("hedge-window-drops-newest", HEDGE, (
        ("del ordered[bisect.bisect_left(ordered, samples[0])]",
         "del ordered[bisect.bisect_left(ordered, samples[-1])]"),
    )),
    # The hedge quantile always interpolates up from the lower neighbour.
    Mutant("hedge-lerp-one-sided", HEDGE, (
        ("        if gamma >= 0.5:\n"
         "            delay = high - step * (1 - gamma)\n"
         "        else:\n"
         "            delay = ordered[index] + step * gamma\n",
         "        delay = ordered[index] + step * gamma\n"),
    )),
    # An L1 eviction pass is charged one batch transfer, one link latency in
    # all, instead of one one-block transfer per demoted block.
    Mutant("l1-demotion-charged-per-batch", TIERS, (
        ("            self._demote(len(hashes), stored, host.transfer_time(1))\n",
         "            self._demote(len(hashes), 0, 0.0)\n"
         "            self._demote_seconds += host.transfer_time(stored)\n"),
    )),
    # The host store's hook loses the last victim of each call.
    Mutant("host-hook-drops-last-victim", HOST, (
        ("                self.on_evict(victims)\n",
         "                self.on_evict(victims[:-1])\n"),
    )),
    # A batch of span events does not advance its (key, kind) sequence.
    Mutant("emit-many-keeps-sequence", RECORDER, (
        ("            self._seq[slot] = seq + count\n", ""),
    )),
    # A fetch stages its tail's cluster hits with one store call after the
    # loop, so a staged block's host victim is never re-checked.
    Mutant("fetch-stages-tail-in-one-store", TIERS, (
        ("        if host is not None:\n"
         "            for content_hash in continuation[landed:]:\n"
         "                if content_hash in host:\n"
         "                    host.refresh(content_hash)\n"
         "                elif cluster is not None and content_hash in cluster:\n"
         "                    host.offload((content_hash,))\n"
         "                    cluster.discard_owned(self.replica, content_hash)\n",
         "        if host is not None:\n"
         "            staged = []\n"
         "            for content_hash in continuation[landed:]:\n"
         "                if content_hash in host:\n"
         "                    host.refresh(content_hash)\n"
         "                elif cluster is not None and content_hash in cluster:\n"
         "                    staged.append(content_hash)\n"
         "            host.store(staged)\n"
         "            if cluster is not None:\n"
         "                cluster.discard_owned(self.replica, *staged)\n"),
    )),
    # A user-id router keeps the assignments of replicas that have left.
    Mutant("router-keeps-stale-assignments", ROUTING, (
        ("        self._assignments = {\n"
         "            user: index for user, index in self._assignments.items()\n"
         "            if index < self.num_instances\n"
         "        }\n", ""),
    )),
    # A heap entry older than its node's last access is evicted as is.
    Mutant("stale-entry-not-rekeyed", TREE, (
        ("            if node.block.last_access != last_access:\n"
         "                heapq.heappush(heap, (node.block.last_access, node.seq, node))\n"
         "                continue\n", ""),
    )),
    # A shard's sub-fleet routes every arrival to its first replica.
    Mutant("shard-ignores-pre-route", SHARDED, (
        ("        return self._routes[request.request_id]\n",
         "        return 0\n"),
    )),
    # A shard's replicas keep the sub-fleet's local names.
    Mutant("shard-keeps-local-names", SHARDED, (
        ("            instance.name = name\n", "            pass\n"),
    )),
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
             *TESTS],
            cwd=root, env=env, capture_output=True, text=True,
        )
    lines = completed.stdout.strip().splitlines()
    summary = lines[-1] if lines else completed.stderr.strip()[-200:]
    outcome = {0: "passed", 1: "failed"}.get(completed.returncode, "error")
    return outcome, summary


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    outcome, detail = run_tests(None)
    if outcome != "passed":
        print(f"mutants: the unmutated tree does not pass the mutant tests ({detail})")
        return 1
    killed = 0
    for mutant in MUTANTS:
        outcome, detail = run_tests(mutant)
        verdict = {"failed": "killed", "passed": "SURVIVED"}.get(outcome, "ERROR")
        killed += verdict == "killed"
        print(f"{verdict:<9}{mutant.name:<36}{detail}", flush=True)
    print(f"mutants: {killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
