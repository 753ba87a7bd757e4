"""Import footprint: a run imports only the modules it uses.

The package ``__init__`` files re-export lazily (PEP 562, see
:func:`repro.lazy_exports`), so importing one module no longer loads every
layer, and no module is imported inside a ``simulate`` call.  Each case runs
in a fresh interpreter and checks ``sys.modules``; none uses a time
threshold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: Layers that no simulation run calls.
UNUSED_BY_RUNS = ("repro.frontend", "repro.execution", "repro.spec.fuzz")

#: Modules only the ``obs``, ``sweep``/``compare`` and ``mil`` subcommands use.
CLI_HANDLER_ONLY = ("repro.obs.analysis", "repro.obs.exporters",
                    "repro.analysis.sweep", "repro.analysis.mil")


def _run(code: str):
    """Run ``code`` in a fresh interpreter; returns the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    return _run(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )


def _under(modules: list[str], roots) -> list[str]:
    return [name for name in modules
            if any(name == root or name.startswith(root + ".") for root in roots)]


def test_simulator_import_skips_unused_layers():
    loaded = _loaded_after("import repro.simulation.simulator")
    unused = (*UNUSED_BY_RUNS, "repro.analysis", "repro.obs.analysis",
              "repro.obs.exporters")
    assert _under(loaded, unused) == []


def test_prefix_tree_import_loads_only_the_kv_layer():
    loaded = _loaded_after("import repro.kvcache.prefix_tree")
    assert "numpy" not in loaded
    others = [name for name in _under(loaded, ("repro",))
              if name not in ("repro", "repro.errors")
              and not name.startswith("repro.kvcache.")
              and name != "repro.kvcache"]
    assert others == []


def test_cli_import_defers_handler_modules():
    loaded = _loaded_after("import repro.cli")
    assert _under(loaded, (*CLI_HANDLER_ONLY, *UNUSED_BY_RUNS)) == []


SIMULATE_SYSTEM = """
import json, sys
from repro.core.engine import prefillonly_engine_spec
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import simulate
from repro.workloads.registry import get_workload

trace = get_workload("post-recommendation", num_users=2, posts_per_user=4)
system = ServingSystem.for_setup(prefillonly_engine_spec(), get_hardware_setup("h100"),
                                 max_input_length=trace.max_request_tokens)
requests = PoissonArrivalProcess(rate=4.0, seed=0).assign(list(trace.requests))
before = set(sys.modules)
result = simulate(system, requests)
assert result.summary.num_requests == len(requests)
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: The tiered chaos cookbook scenario with resilience policies and recording
#: added, so the fleet call crosses tiers, faults, policies and obs hooks.
SIMULATE_FLEET = """
import json, sys
from pathlib import Path
from repro.simulation import scenario as scenario_module

config = json.loads(Path("examples/scenarios/chaos_tiered_recovery.json").read_text())
policies = json.loads(Path("examples/scenarios/chaos_resilience_policies.json").read_text())
config["resilience"] = policies["resilience"]
config["resilience"]["degrade"]["low_priority_tenants"] = ["bank"]
config["observability"] = {"enabled": True}
added = []
simulate_fleet = scenario_module.simulate_fleet

def probed(fleet, requests, **kwargs):
    assert kwargs.get("shards", 1) == 1
    before = set(sys.modules)
    try:
        return simulate_fleet(fleet, requests, **kwargs)
    finally:
        added.extend(set(sys.modules) - before)

scenario_module.simulate_fleet = probed
result = scenario_module.run_scenario(scenario_module.scenario_from_dict(config))
assert result.result.obs is not None and result.result.fleet.resilience is not None
print(json.dumps(sorted(added)))
"""


@pytest.mark.parametrize("code", [SIMULATE_SYSTEM, SIMULATE_FLEET],
                         ids=["simulate", "simulate_fleet"])
def test_simulate_call_imports_nothing(code):
    assert _run(code) == []


PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in PACKAGE.rglob("__init__.py")
)

CHECK_EXPORTS = """
import importlib, json, pkgutil
package = importlib.import_module({package!r})
exports = list(package.__all__)
submodules = {{info.name for info in pkgutil.iter_modules(package.__path__)}}
listed = dir(package)
problems = [name for name in exports
            if name in submodules or name not in listed or getattr(package, name) is None]
try:
    package.no_such_export
except AttributeError:
    pass
else:
    problems.append("no_such_export")
print(json.dumps([len(exports), problems]))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    """Every exported name resolves in a fresh process and ``dir()`` lists it;
    none shadows a submodule, and an unknown name raises ``AttributeError``."""
    count, problems = _run(CHECK_EXPORTS.format(package=package))
    assert count > 0
    assert problems == []
