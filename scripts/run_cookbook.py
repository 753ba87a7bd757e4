#!/usr/bin/env python
"""Smoke-run every CLI example in the scenario cookbook (``make scenarios``).

Extracts each ``python -m repro.cli ...`` line from the fenced code blocks of
``docs/SCENARIOS.md`` and executes it from the repository root with
``PYTHONPATH=src``, in file order (so a ``scenario run --record`` precedes the
``scenario replay`` that consumes its trace).  The cookbook's ``/tmp/`` paths
are rewritten into one temporary directory per run, so two concurrent runs
share no file.  Any non-zero exit fails the whole run — a cookbook example
that stops working fails CI, not a reader.

Run with::

    python scripts/run_cookbook.py            # quiet, prints one line per command
    python scripts/run_cookbook.py --verbose  # stream each command's output
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from docs_check import CLI_LINE, FENCED_BLOCK  # noqa: E402  (shared extraction rules)
from repro.obs.logging import LOG_LEVELS, configure, get_logger  # noqa: E402

logger = get_logger("scripts.run_cookbook")

REPO_ROOT = Path(__file__).resolve().parent.parent
COOKBOOK = REPO_ROOT / "docs" / "SCENARIOS.md"


def cookbook_commands() -> list[str]:
    """The cookbook's CLI lines, in document order.

    Uses the same fenced-block and CLI-line patterns as ``docs_check.py``, so
    every command this script runs is exactly the set that check validates.
    """
    text = COOKBOOK.read_text(encoding="utf-8")
    commands = []
    for block in FENCED_BLOCK.findall(text):
        for match in CLI_LINE.finditer(block):
            commands.append(f"python -m repro.cli {match.group(1)}")
    return commands


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="stream each command's output instead of capturing it")
    parser.add_argument("--log-level", default="info", choices=LOG_LEVELS,
                        help="structured logging level for progress lines")
    args = parser.parse_args()
    configure(args.log_level)

    commands = cookbook_commands()
    if not commands:
        logger.error("no CLI lines found in %s", COOKBOOK)
        return 1

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="cookbook-") as scratch:
        for index, command in enumerate(commands, start=1):
            command = command.replace("/tmp/", f"{scratch}/")
            logger.info("[%d/%d] %s", index, len(commands), command)
            completed = subprocess.run(
                command, shell=True, cwd=REPO_ROOT, env=env,
                capture_output=not args.verbose, text=True,
            )
            if completed.returncode != 0:
                logger.error("FAILED (exit %d): %s", completed.returncode, command)
                if not args.verbose and completed.stderr:
                    print(completed.stderr, file=sys.stderr)
                return 1
    print(f"run-cookbook: OK ({len(commands)} command(s) ran)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
