"""The KV structural invariant (invariant 6 of :mod:`repro.simulation.invariants`).

After drain, each replica's block accounting and radix tree must hold: the
allocator's pool adds up, its allocated block ids are the tree's resident
blocks' ids (each allocated, none shared), no lease or pin is left, every
parent is resident, every node's child count is the number of resident nodes
naming it as their parent, and every leaf (child count 0) has an LRU-heap
entry that does not overestimate its recency.
It holds at the end of every cookbook scenario, and each kind of breakage,
made by editing one snapshot of a drained manager, is reported.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import InvariantViolation
from repro.kvcache.manager import KVCacheManager
from repro.simulation.invariants import check_kv_structure, check_scenario_invariants
from repro.simulation.scenario import build_mix, load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
BLOCK = 16


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda path: path.name)
def test_cookbook_scenarios_satisfy_every_invariant(path):
    spec = load_scenario(path)
    requests = build_mix(spec).requests
    check_scenario_invariants(run_scenario(spec, keep_fleet=True), requests)


def drained_manager() -> KVCacheManager:
    """A manager whose tree holds chains (1, 2, 3), (1, 2, 4) and (5,)."""
    kv = KVCacheManager(8 * BLOCK, block_size=BLOCK)
    for now, chain in enumerate(((1, 2, 3), (1, 2, 4), (5,))):
        lease = kv.begin_execution(chain, len(chain) * BLOCK,
                                   reserve_full_kv=True, now=float(now))
        kv.finish_execution(lease, now=float(now))
    return kv


def fleet_of(kv) -> SimpleNamespace:
    return SimpleNamespace(all_replicas=[SimpleNamespace(name="r0", kv=kv)])


class EditedSnapshot:
    """A drained manager whose tree snapshot passes through ``edit`` first."""

    num_active_leases = 0

    def __init__(self, edit) -> None:
        self._kv = drained_manager()
        self._edit = edit

    def tree_snapshot(self):
        return self._edit(self._kv.tree_snapshot())


def with_node(snapshot, content_hash, **changes):
    nodes = dict(snapshot.nodes)
    nodes[content_hash] = nodes[content_hash]._replace(**changes)
    return dataclasses.replace(snapshot, nodes=nodes)


def scratch_allocated(snapshot):
    snapshot.allocator.allocate()
    return snapshot


EDITS = {
    "pool-does-not-add-up": (lambda s: dataclasses.replace(s, allocator=SimpleNamespace(
        num_free_blocks=1, num_allocated_blocks=6, num_blocks=8)), "allocated blocks"),
    "scratch-block-left": (scratch_allocated, "resident cached blocks"),
    "block-not-allocated": (lambda s: with_node(s, 3, block_id=99), "not allocated"),
    "block-id-shared": (lambda s: with_node(s, 4, block_id=s.nodes[3].block_id),
                        "share block id"),
    "block-pinned": (lambda s: with_node(s, 2, ref_count=1), "still pinned"),
    "parent-not-resident": (lambda s: with_node(with_node(s, 2, num_children=1), 3, parent=99),
                            "parent 99"),
    "child-count-too-high": (lambda s: with_node(s, 2, num_children=3),
                             "node 2's child count is 3, but 2"),
    "child-count-too-low": (lambda s: with_node(s, 2, num_children=1),
                            "node 2's child count is 1, but 2"),
    "leaf-without-heap-entry": (lambda s: dataclasses.replace(s, heap_keys={}),
                                "no LRU-heap entry"),
    "heap-key-overestimates": (lambda s: dataclasses.replace(
        s, heap_keys={**s.heap_keys, 5: (math.inf, 0)}), "leaf 5"),
}


def test_a_drained_manager_satisfies_the_invariant():
    check_kv_structure(fleet_of(drained_manager()))


def test_an_outstanding_lease_is_a_violation():
    kv = drained_manager()
    kv.begin_execution((1, 2, 3), 3 * BLOCK, reserve_full_kv=False)
    with pytest.raises(InvariantViolation, match="1 execution lease"):
        check_kv_structure(fleet_of(kv))


@pytest.mark.parametrize("name", sorted(EDITS))
def test_each_breakage_is_a_violation(name):
    edit, message = EDITS[name]
    with pytest.raises(InvariantViolation, match="kv-structure") as excinfo:
        check_kv_structure(fleet_of(EditedSnapshot(edit)))
    assert message in str(excinfo.value)
