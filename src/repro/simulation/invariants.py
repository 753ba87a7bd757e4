"""System-wide invariants every simulation run must satisfy.

The checks the scenario fuzzer (``tests/test_scenario_fuzz.py``) asserts over
every randomly generated config, and that any test can assert over a finished
run.  Each check raises :class:`~repro.errors.InvariantViolation` naming the
violated invariant, so a fuzz failure states *which* law broke, not just that
two numbers differed:

1. **request-conservation** — every offered request ends in exactly one
   terminal record: finished, rejected (engine capacity), or shed (admission
   control / fleet-wide crash).  Crash-evacuated requests that were re-routed
   still terminate exactly once.
2. **goodput-bound** — the fleet cannot finish more requests (or more tokens)
   than were offered.
3. **single-kv-residency** — per owning replica, a content hash lives in at
   most one tier: GPU (L1), host (L2), and the replica's own cluster-store
   (L3) entries are pairwise disjoint.  Peer-owned L3 entries may coexist
   with a local copy — that is the design (peer fetch), not a violation.
4. **tenant-consistency** — per-tenant finished/rejected counts sum to the
   fleet totals.
5. **reproducibility** — the same spec re-run with the same seed produces a
   bit-identical :func:`scenario_fingerprint` (asserted by the fuzz test via
   two independent runs).
6. **kv-structure** — after drain, per replica (retired and crashed ones
   included): the block allocator's free and allocated blocks add up to its
   pool, the allocated block ids are exactly the radix tree's resident
   blocks' ids (each allocated, none shared), no lease is outstanding and
   no block is pinned, every resident node's parent is resident, every
   node's child count is the number of resident nodes naming it as their
   parent, and every leaf (a node whose count is 0) has an LRU-heap entry
   whose key does not exceed its ``(last_access, seq)``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.errors import InvariantViolation
from repro.simulation.scenario import ScenarioResult

__all__ = [
    "check_request_conservation",
    "check_goodput_bound",
    "check_single_kv_residency",
    "check_tenant_consistency",
    "check_kv_structure",
    "scenario_fingerprint",
    "check_scenario_invariants",
]


def _ids(records) -> list[int]:
    return [record.request_id for record in records]


def check_request_conservation(result, requests) -> None:
    """Invariant 1: offered == finished ∪ rejected, with no double-count.

    Args:
        result: A :class:`~repro.simulation.simulator.FleetSimulationResult`
            (``rejected`` already includes the admission-control sheds).
        requests: The offered request stream the simulation consumed.
    """
    offered = _ids(requests)
    offered_set = set(offered)
    if len(offered) != len(offered_set):
        raise InvariantViolation(
            "request-conservation",
            f"offered stream repeats request ids ({len(offered)} records, "
            f"{len(offered_set)} distinct)",
        )
    finished = _ids(result.finished)
    rejected = _ids(result.rejected)
    finished_set, rejected_set = set(finished), set(rejected)
    if len(finished) != len(finished_set):
        raise InvariantViolation(
            "request-conservation", "a request finished more than once"
        )
    if len(rejected) != len(rejected_set):
        raise InvariantViolation(
            "request-conservation", "a request was rejected more than once"
        )
    both = finished_set & rejected_set
    if both:
        raise InvariantViolation(
            "request-conservation",
            f"requests {sorted(both)[:5]} are both finished and rejected",
        )
    terminal = finished_set | rejected_set
    if terminal != offered_set:
        missing = sorted(offered_set - terminal)[:5]
        phantom = sorted(terminal - offered_set)[:5]
        raise InvariantViolation(
            "request-conservation",
            f"{len(offered_set - terminal)} offered requests never terminated "
            f"(e.g. {missing}) and {len(terminal - offered_set)} terminal "
            f"records were never offered (e.g. {phantom})",
        )


def check_goodput_bound(result, requests) -> None:
    """Invariant 2: finished work never exceeds offered work."""
    offered_count = len(requests)
    offered_tokens = sum(request.num_tokens for request in requests)
    finished_count = len(result.finished)
    finished_tokens = sum(record.num_tokens for record in result.finished)
    if finished_count > offered_count:
        raise InvariantViolation(
            "goodput-bound",
            f"finished {finished_count} requests but only {offered_count} "
            "were offered",
        )
    if finished_tokens > offered_tokens:
        raise InvariantViolation(
            "goodput-bound",
            f"finished {finished_tokens} tokens but only {offered_tokens} "
            "were offered",
        )


def check_single_kv_residency(fleet) -> None:
    """Invariant 3: per owner, a content hash lives in at most one tier."""
    cluster = getattr(fleet, "cluster_store", None)
    for engine in fleet.replicas:
        manager = engine.kv
        l1 = set(manager.resident_hashes())
        tiers = manager.tiers
        l2: set[int] = set()
        owned_l3: set[int] = set()
        if tiers is not None and tiers.host is not None:
            l2 = set(tiers.host.resident_hashes())
        if cluster is not None:
            owned_l3 = {
                content_hash for content_hash in cluster.resident_hashes()
                if cluster.owner_of(content_hash) == tiers.replica
            } if tiers is not None else set()
        for tier_a, tier_b, overlap in (
            ("gpu", "host", l1 & l2),
            ("gpu", "cluster", l1 & owned_l3),
            ("host", "cluster", l2 & owned_l3),
        ):
            if overlap:
                raise InvariantViolation(
                    "single-kv-residency",
                    f"replica {engine.name!r} holds hashes "
                    f"{sorted(overlap)[:3]} in both its {tier_a} and "
                    f"{tier_b} tiers",
                )


def check_tenant_consistency(result: ScenarioResult) -> None:
    """Invariant 4: per-tenant counts sum to the fleet totals."""
    tenant_finished = sum(report.summary.num_requests for report in result.tenants)
    tenant_rejected = sum(report.summary.num_rejected for report in result.tenants)
    fleet_finished = len(result.result.finished)
    fleet_rejected = len(result.result.rejected)
    if tenant_finished != fleet_finished:
        raise InvariantViolation(
            "tenant-consistency",
            f"tenant finished counts sum to {tenant_finished}, fleet "
            f"finished {fleet_finished}",
        )
    if tenant_rejected != fleet_rejected:
        raise InvariantViolation(
            "tenant-consistency",
            f"tenant rejected counts sum to {tenant_rejected}, fleet "
            f"rejected {fleet_rejected}",
        )


def check_kv_structure(fleet) -> None:
    """Invariant 6: after drain, each replica's KV accounting and radix tree hold."""
    for engine in fleet.all_replicas:
        problem = _kv_structure_problem(engine.kv)
        if problem is not None:
            raise InvariantViolation("kv-structure", f"replica {engine.name!r}: {problem}")


def _kv_structure_problem(manager) -> str | None:
    """The first way a drained manager's blocks or radix tree are broken, or None."""
    if manager.num_active_leases:
        return f"{manager.num_active_leases} execution lease(s) outstanding after drain"
    tree = manager.tree_snapshot()
    allocator = tree.allocator
    nodes = tree.nodes
    free, allocated = allocator.num_free_blocks, allocator.num_allocated_blocks
    if free + allocated != allocator.num_blocks:
        return (f"{free} free + {allocated} allocated blocks != a pool of "
                f"{allocator.num_blocks}")
    if allocated != len(nodes):
        return f"{allocated} allocated blocks but {len(nodes)} resident cached blocks"
    named = Counter(node.parent for node in nodes.values())
    owners: dict[int, int] = {}
    for content_hash, node in nodes.items():
        if node.block_id not in allocator:
            return f"cached block {content_hash} is not allocated"
        owner = owners.setdefault(node.block_id, content_hash)
        if owner != content_hash:
            return (f"cached blocks {owner} and {content_hash} share block id "
                    f"{node.block_id}")
        if node.ref_count:
            return f"block {content_hash} is still pinned after drain"
        parent = node.parent
        if parent is not None and parent not in nodes:
            return f"node {content_hash}'s parent {parent} is not resident"
        if node.num_children != named[content_hash]:
            return (f"node {content_hash}'s child count is {node.num_children}, but "
                    f"{named[content_hash]} resident nodes name it as their parent")
        key = tree.heap_keys.get(content_hash)
        if not node.num_children and (key is None or key > (node.last_access, node.seq)):
            return (f"leaf {content_hash} at {(node.last_access, node.seq)} has no "
                    f"LRU-heap entry at or below it (smallest: {key})")
    return None


def scenario_fingerprint(result: ScenarioResult) -> dict:
    """Everything observable from one scenario run, JSON-serialisable.

    Floats are kept unrounded, so equality of two fingerprints (after a JSON
    round trip, which preserves them bit-for-bit) is bit-reproducibility —
    invariant 5 compares the fingerprints of two same-seed runs.
    """
    return {
        "summary": dataclasses.asdict(result.result.summary),
        "fleet": result.result.fleet.as_dict(),
        "tenants": [report.as_dict() for report in result.tenants],
        "num_events": result.result.num_events,
        "finished_ids": sorted(r.request_id for r in result.result.finished),
        "rejected_ids": sorted(r.request_id for r in result.result.rejected),
    }


def check_scenario_invariants(result: ScenarioResult, requests) -> None:
    """Run every per-run invariant (1-4 and 6) over one finished scenario.

    Invariant 5 (reproducibility) needs a second run of the same spec, so it
    is asserted by the caller comparing :func:`scenario_fingerprint` values.
    Residency (3) and KV structure (6) need the live fleet — run the scenario
    with ``keep_fleet=True``; they are skipped when the result carries no
    fleet.
    """
    check_request_conservation(result.result, requests)
    check_goodput_bound(result.result, requests)
    check_tenant_consistency(result)
    if result.fleet is not None:
        check_single_kv_residency(result.fleet)
        check_kv_structure(result.fleet)
