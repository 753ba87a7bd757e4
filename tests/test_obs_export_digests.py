"""Export goldens: the recorded bytes of two tiered scenarios, pinned by digest.

The identity tests in ``tests/test_obs_identity.py`` check the exports only
against themselves (round trip, same seed, sharded against unsharded).  This
module pins them against a committed file: the SHA-256 of ``export_spans``
and of ``export_prometheus`` for recorded ``chaos_tiered_recovery`` and
``tiered_shared_prefix`` at one shard.  Both scenarios run the demotion
cascade (L1 -> host -> cluster), so every demote event, its sequence number
and the counters it feeds are part of the digest.

To regenerate the digest file after an *intentional* recording change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_obs_export_digests.py -q
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.obs.exporters import export_prometheus, export_spans
from repro.simulation.scenario import load_scenario, run_scenario
from repro.spec.models import ObservabilitySpec

REPO = Path(__file__).parent.parent
SCENARIOS = REPO / "examples" / "scenarios"
GOLDEN = REPO / "tests" / "golden" / "obs_export_digests.json"

STEMS = ("chaos_tiered_recovery", "tiered_shared_prefix")
EXPORTS = {"spans": export_spans, "prometheus": export_prometheus}


def _digests(stem: str) -> dict[str, str]:
    spec = load_scenario(SCENARIOS / f"{stem}.json")
    spec = dataclasses.replace(
        spec, shards=1, observability=ObservabilitySpec(enabled=True)
    )
    data = run_scenario(spec).result.obs
    return {
        name: hashlib.sha256(export(data).encode("utf-8")).hexdigest()
        for name, export in EXPORTS.items()
    }


@pytest.mark.parametrize("stem", STEMS)
def test_recorded_exports_match_golden_digests(stem):
    digests = _digests(stem)
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        golden[stem] = digests
        GOLDEN.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests == golden[stem], (
        f"the recorded exports of {stem} drifted from their golden digests"
    )
