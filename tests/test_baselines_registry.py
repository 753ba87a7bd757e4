"""Tests for the engine-spec registry."""

import pytest

from repro.baselines.registry import ENGINE_ORDER, all_engine_specs, baseline_specs, get_engine_spec
from repro.errors import ConfigurationError


def test_all_engine_specs_count_and_order():
    specs = all_engine_specs()
    assert [spec.name for spec in specs] == ENGINE_ORDER
    assert len(specs) == 5


def test_baseline_specs_exclude_prefillonly():
    names = [spec.name for spec in baseline_specs()]
    assert "prefillonly" not in names
    assert len(names) == 4


def test_get_engine_spec_with_overrides():
    spec = get_engine_spec("chunked-prefill", chunk_tokens=1024)
    assert spec.chunk_tokens == 1024
    spec = get_engine_spec("prefillonly", fairness_lambda=0.0)
    assert spec.fairness_lambda == 0.0


def test_get_engine_spec_unknown():
    with pytest.raises(ConfigurationError):
        get_engine_spec("sglang")


def test_disabling_prefix_caching_reaches_every_baseline_spec():
    for name in ENGINE_ORDER:
        if name == "prefillonly":
            continue
        assert get_engine_spec(name).enable_prefix_caching
        assert not get_engine_spec(name, enable_prefix_caching=False).enable_prefix_caching


def test_engine_names_are_unique():
    names = [spec.name for spec in all_engine_specs()]
    assert len(names) == len(set(names))
