"""A fixed pure-Python reference loop that measures the machine's current speed.

Usage::

    python3 perfbench/reference.py

Prints the loop's wall time in seconds.  ``run.py`` runs it in its own
process right before every operation and scales the operation's times by
``REFERENCE_NOMINAL_S / reference time``, so host-level slowdowns (which on a
shared machine move every process's speed for tens of seconds at a time)
cancel out.  The loop imitates the simulator's hot path — a radix tree of
chained hashes with an LRU heap and a working set of about 12k nodes — and
depends on nothing in the repository, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import random
import time

CHAINS = 400
CHAIN_BLOCKS = 60
STEPS = 12_000
MAX_NODES = 12_000


class Node:
    __slots__ = ("key", "parent", "children", "stamp")

    def __init__(self, key: int, parent, stamp: int) -> None:
        self.key = key
        self.parent = parent
        self.children: dict = {}
        self.stamp = stamp


def reference_loop() -> None:
    rng = random.Random(1)
    chains = [[hash((chain, block)) for block in range(CHAIN_BLOCKS)]
              for chain in range(CHAINS)]
    nodes: dict[int, Node] = {}
    heap: list = []
    for step in range(STEPS):
        chain = chains[rng.randrange(CHAINS)]
        parent = None
        for depth, key in enumerate(chain[: 20 + step % 40]):
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = Node(key, parent, step)
                if parent is not None:
                    parent.children[key] = node
                heapq.heappush(heap, (step, depth, key))
            else:
                node.stamp = step
            parent = node
        while len(nodes) > MAX_NODES and heap:
            _, _, key = heapq.heappop(heap)
            node = nodes.get(key)
            if node is not None and not node.children:
                del nodes[key]
                if node.parent is not None:
                    node.parent.children.pop(key, None)


if __name__ == "__main__":
    start = time.perf_counter()
    reference_loop()
    print(time.perf_counter() - start)
