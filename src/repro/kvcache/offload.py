"""CPU offload store for KV caches.

The paper's default configuration *discards* suffix KV caches, but §9 notes the
alternative of offloading them to CPU memory (LMCache-style).  This module
provides that alternative so the engine can be configured either way and so the
ablation benchmarks can compare the two.

The store is a flat LRU keyed by block content hash, with a byte budget and a
modelled PCIe transfer cost so the serving simulator can charge load/save time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Container, Sequence

from repro.hardware.interconnect import Interconnect, PCIE_GEN4


@dataclass(frozen=True)
class OffloadStats:
    """Cumulative counters of the offload store."""

    stored_blocks: int
    loaded_blocks: int
    evicted_blocks: int
    current_blocks: int
    current_bytes: int


class CPUOffloadStore:
    """LRU store of KV blocks in host memory.

    Like the GPU radix tree, the store keeps a change record for one watcher
    (the SRJF scheduler's frontier index on a tiered manager): every change
    of membership — a new block stored, an LRU eviction, a :meth:`discard`
    or a :meth:`clear` — of a watched hash is recorded until the watcher
    calls :meth:`take_changes`.  An LRU refresh changes no lookup and is not
    recorded.

    Args:
        capacity_bytes: Host-memory budget for offloaded KV blocks.
        block_bytes: Size of one KV block in bytes.
        link: Host-device link used to charge transfer time.
    """

    def __init__(self, capacity_bytes: int, block_bytes: int,
                 link: Interconnect = PCIE_GEN4) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self._capacity_bytes = capacity_bytes
        self._block_bytes = block_bytes
        self._link = link
        self._blocks: OrderedDict[int, int] = OrderedDict()
        self._stored = 0
        self._loaded = 0
        self._evicted = 0
        #: Transfer-cost multiplier applied to every modelled transfer time.
        #: 1.0 (the default) is a bit-exact no-op; the fault subsystem raises
        #: it during interconnect brownouts.
        self.cost_multiplier: float = 1.0
        self._watched: Container[int] = ()
        self._changed: set[int] = set()

    @property
    def capacity_blocks(self) -> int:
        """How many blocks fit in the host budget."""
        return self._capacity_bytes // self._block_bytes

    @property
    def num_blocks(self) -> int:
        """Blocks currently stored."""
        return len(self._blocks)

    @property
    def stats(self) -> OffloadStats:
        return OffloadStats(
            stored_blocks=self._stored,
            loaded_blocks=self._loaded,
            evicted_blocks=self._evicted,
            current_blocks=len(self._blocks),
            current_bytes=len(self._blocks) * self._block_bytes,
        )

    def __contains__(self, content_hash: int) -> bool:
        return content_hash in self._blocks

    @property
    def resident(self) -> Container[int]:
        """The stored content hashes as a live container (the store's own
        dict, read only): membership tests without a call per block."""
        return self._blocks

    def take_changes(self, watched: Container[int]) -> set[int] | None:
        """Watched content hashes stored, evicted, discarded or cleared since
        the previous call.

        The same one-watcher contract as
        :meth:`~repro.kvcache.prefix_tree.RadixPrefixCache.take_changes`: a
        change is recorded only if its hash is watched when it happens, and
        a ``watched`` container that is not the one already watched starts
        an empty record and gets None.
        """
        if watched is not self._watched:
            self._watched = watched
            self._changed = set()
            return None
        changed = self._changed
        if changed:
            self._changed = set()
        return changed

    # ------------------------------------------------------------------ I/O

    def store(self, block_hashes: Sequence[int]) -> float:
        """Offload blocks to host memory; return the modelled transfer time.

        The batch pays one link latency (see :meth:`transfer_time`);
        already-present blocks are refreshed (moved to MRU) at no cost, and
        LRU victims are dropped.
        """
        return self._transfer_time(self.offload(block_hashes)[0])

    def offload(self, block_hashes: Sequence[int]) -> tuple[int, list[int]]:
        """Offload blocks to host memory; return (newly stored, LRU victims).

        Already-present blocks are refreshed (moved to MRU).  A new block
        evicts LRU blocks while the store is full; the victims come back in
        eviction order, for the caller to demote or drop.
        """
        blocks = self._blocks
        capacity = self.capacity_blocks
        if not capacity:
            return 0, []
        watched, changed = self._watched, self._changed
        victims: list[int] = []
        stored = 0
        for content_hash in block_hashes:
            if content_hash in blocks:
                blocks.move_to_end(content_hash)
                continue
            while len(blocks) >= capacity:
                victim, _ = blocks.popitem(last=False)
                if victim in watched:
                    changed.add(victim)
                victims.append(victim)
            blocks[content_hash] = self._block_bytes
            if content_hash in watched:
                changed.add(content_hash)
            stored += 1
        self._stored += stored
        self._evicted += len(victims)
        return stored, victims

    def refresh(self, content_hash: int) -> None:
        """Move a stored block to the MRU end: an LRU refresh, with no
        transfer and no change record."""
        self._blocks.move_to_end(content_hash)

    def load(self, block_hashes: Sequence[int]) -> tuple[int, float]:
        """Bring the longest stored prefix back; return (blocks loaded, time)."""
        loaded = 0
        for content_hash in block_hashes:
            if content_hash not in self._blocks:
                break
            self._blocks.move_to_end(content_hash)
            loaded += 1
        self._loaded += loaded
        return loaded, self._transfer_time(loaded)

    def match_length(self, block_hashes: Sequence[int]) -> int:
        """Length (in blocks) of the stored prefix of ``block_hashes``."""
        count = 0
        for content_hash in block_hashes:
            if content_hash not in self._blocks:
                break
            count += 1
        return count

    def discard(self, *content_hashes: int) -> list[int]:
        """Drop stored blocks (no victims); return the dropped hashes in
        order (empty, so false, when none was stored).

        Used by the tiered store when blocks are promoted into the GPU tier,
        so a block is never resident in two tiers at once.  A batch is one
        call.
        """
        blocks, watched, changed = self._blocks, self._watched, self._changed
        dropped = []
        for content_hash in content_hashes:
            if blocks.pop(content_hash, None) is not None:
                if content_hash in watched:
                    changed.add(content_hash)
                dropped.append(content_hash)
        return dropped

    def resident_hashes(self) -> list[int]:
        """Stored content hashes in LRU order (oldest first)."""
        return list(self._blocks)

    def transfer_time(self, num_blocks: int) -> float:
        """Modelled seconds to move ``num_blocks`` over the store's link."""
        return self._transfer_time(num_blocks)

    def _transfer_time(self, num_blocks: int) -> float:
        if num_blocks == 0:
            return 0.0
        seconds = num_blocks * self._block_bytes / self._link.bandwidth + self._link.latency
        return seconds * self.cost_multiplier

    def clear(self) -> None:
        """Drop everything stored."""
        self._changed.update(h for h in self._blocks if h in self._watched)
        self._blocks.clear()
