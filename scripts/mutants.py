#!/usr/bin/env python
"""Seeded mutants of the KV layer, each of which the KV tests must kill.

``make mutants`` entry point.  A mutant is one or more exact source-text
replacements in a module under ``src/``.  For the unmutated tree and then for
each mutant, the script copies ``src/`` and ``tests/`` into a temporary
directory, applies the mutant there and runs the KV test set
(:data:`KV_TESTS`, tier-1 hypothesis profile without shrinking).  The
unmutated copy must pass; a mutant is killed when a test fails.

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

#: The tests every mutant must fail.
KV_TESTS = (
    "tests/test_prefix_cache_oracle.py",
    "tests/test_kvcache_prefix_tree.py",
    "tests/test_kvcache_tiers.py",
    "tests/test_kvcache_manager.py",
    "tests/test_kv_invariants.py",
    "tests/test_properties.py",
    "tests/test_scheduler_oracle.py",
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
    # A touching match stamps no block.
    Mutant("match-stamps-nothing", TREE, (
        ("        if touch:\n            frontier.touch(now)\n", ""),
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
    # A heap entry older than its node's last access is evicted as is.
    Mutant("stale-entry-not-rekeyed", TREE, (
        ("            if node.block.last_access != last_access:\n"
         "                heapq.heappush(heap, (node.block.last_access, node.seq, node))\n"
         "                continue\n", ""),
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
    """Run the KV tests on a copy of the tree with ``mutant`` applied.

    Returns ``(outcome, detail)``: ``passed`` or ``failed`` with the test
    summary, or ``error`` when the mutant could not be applied or pytest did
    not get to run the tests.
    """
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="kv-mutant-") as tmp:
        root = Path(tmp)
        shutil.copytree(REPO / "src", root / "src", ignore=ignore)
        shutil.copytree(REPO / "tests", root / "tests", ignore=ignore)
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
             *KV_TESTS],
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
        print(f"mutants: the unmutated tree does not pass the KV tests ({detail})")
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
