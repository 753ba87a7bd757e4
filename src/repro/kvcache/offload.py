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
from typing import Callable, Container, Sequence

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
        #: Optional hook fired with each evicted content hash.  The tiered
        #: prefix store uses it to demote host evictions into the
        #: cluster-shared tier instead of dropping them.
        self.on_evict: Callable[[int], None] | None = None
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

        Already-present blocks are refreshed (moved to MRU) at no cost.
        """
        transferred = 0
        watched, changed = self._watched, self._changed
        for content_hash in block_hashes:
            if content_hash in self._blocks:
                self._blocks.move_to_end(content_hash)
                continue
            while len(self._blocks) >= max(self.capacity_blocks, 0) and self._blocks:
                victim, _ = self._blocks.popitem(last=False)
                self._evicted += 1
                if victim in watched:
                    changed.add(victim)
                if self.on_evict is not None:
                    self.on_evict(victim)
            if self.capacity_blocks == 0:
                break
            self._blocks[content_hash] = self._block_bytes
            if content_hash in watched:
                changed.add(content_hash)
            self._stored += 1
            transferred += 1
        return self._transfer_time(transferred)

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

    def discard(self, content_hash: int) -> bool:
        """Drop one stored block (no eviction hook); return whether it existed.

        Used by the tiered store when a block is promoted into the GPU tier,
        so it is never resident in two tiers at once.
        """
        if self._blocks.pop(content_hash, None) is None:
            return False
        if content_hash in self._watched:
            self._changed.add(content_hash)
        return True

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
