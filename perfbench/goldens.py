"""Regenerate ``goldens.json``: the output fingerprint of every input variant.

Usage (from the repository root)::

    python3 perfbench/goldens.py [--workload NAME ...]

Runs each (workload, variant) once in a fresh child and stores its
fingerprint.  Regenerate only when a change is *meant* to alter simulated
results; an optimisation must leave every golden unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    run.check_sources()
    goldens = run.load_goldens()
    for workload in args.workload or run.WORKLOADS:
        entries = {}
        for variant in range(run.VARIANTS):
            result = run.spawn(workload, variant)
            if not result["ok"]:
                print(f"{workload} variant {variant}: {result['error']}", file=sys.stderr)
                return 1
            entries[str(variant)] = result["out"]["fingerprint"]
            print(f"{workload} variant {variant}: {result['wall_s']:.2f}s")
        goldens[workload] = entries
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
