"""Shared fixtures and hypothesis profiles for the test suite.

Fixtures keep the expensive objects (workload traces, serving systems) small so
the whole suite stays fast; benchmarks use paper-scale parameters instead.

The fuzzers and differential oracles run under one of two derandomized
hypothesis profiles, so a failure reproduces on every run:

* ``fuzz`` — 200 examples; ``make fuzz`` selects it with
  ``HYPOTHESIS_PROFILE=fuzz``.
* ``fuzz-smoke`` — 25 examples; the tier-1 default, so the regular suite
  stays fast but never skips a fuzzer entirely.

Test modules decorate with ``settings.get_profile("fuzz-run")``, the one of
the two this run selected.  The differential oracles use ``"oracle-run"``,
the same profile at eight times the examples: an oracle example takes
milliseconds, a scenario-fuzz example a whole simulation.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.engine import prefillonly_engine_spec
from repro.hardware.cluster import get_hardware_setup
from repro.hardware.gpu import get_gpu
from repro.model.config import get_model
from repro.workloads.registry import get_workload

settings.register_profile(
    "fuzz",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow, HealthCheck.data_too_large),
)
settings.register_profile("fuzz-smoke", settings.get_profile("fuzz"), max_examples=25)
settings.register_profile("fuzz-run", settings.get_profile(
    "fuzz" if os.environ.get("HYPOTHESIS_PROFILE") == "fuzz" else "fuzz-smoke"
))
settings.register_profile(
    "oracle-run", settings.get_profile("fuzz-run"),
    max_examples=8 * settings.get_profile("fuzz-run").max_examples,
)


@pytest.fixture(scope="session")
def llama_8b():
    return get_model("llama-3.1-8b")


@pytest.fixture(scope="session")
def qwen_32b():
    return get_model("qwen-32b-fp8")


@pytest.fixture(scope="session")
def llama_70b():
    return get_model("llama-3.3-70b-fp8")


@pytest.fixture(scope="session")
def l4_gpu():
    return get_gpu("l4")


@pytest.fixture(scope="session")
def a100_gpu():
    return get_gpu("a100-40gb")


@pytest.fixture(scope="session")
def h100_gpu():
    return get_gpu("h100-80gb")


@pytest.fixture(scope="session")
def h100_setup():
    return get_hardware_setup("h100")


@pytest.fixture(scope="session")
def l4_setup():
    return get_hardware_setup("l4")


@pytest.fixture(scope="session")
def small_post_trace():
    """A shrunken post-recommendation trace (4 users x 8 posts)."""
    return get_workload("post-recommendation", num_users=4, posts_per_user=8, seed=7)


@pytest.fixture(scope="session")
def small_credit_trace():
    """A shrunken credit-verification trace (6 users)."""
    return get_workload("credit-verification", num_users=6, seed=7)


@pytest.fixture()
def prefillonly_spec():
    return prefillonly_engine_spec()
