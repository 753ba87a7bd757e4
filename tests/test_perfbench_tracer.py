"""Every entry point the repo benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` names the functions and methods it times as
``module:Class.attr`` strings.  A refactor that renames or deletes one leaves
that layer's counters at zero instead of failing, so this guard installs the
tracer the way ``perfbench/child.py`` does and requires it to find every
target.  It runs in a subprocess because installing the tracer rewraps
library classes for the rest of the process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_finds_every_target():
    completed = subprocess.run(
        [sys.executable, "-c", _INSTALL,
         str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    missing = json.loads(completed.stdout.splitlines()[-1])
    assert missing == []
