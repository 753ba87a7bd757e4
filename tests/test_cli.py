"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "llama-3.1-8b" in output
    assert "NVIDIA H100" in output
    assert "prefillonly" in output


def test_workload_command(capsys):
    assert main(["workload", "credit-verification"]) == 0
    output = capsys.readouterr().out
    assert "credit-verification" in output
    assert "total_tokens" in output


def test_mil_command_subset(capsys):
    code = main(["mil", "--engines", "prefillonly", "paged-attention", "--setups", "a100"])
    assert code == 0
    output = capsys.readouterr().out
    assert "prefillonly" in output
    assert "a100" in output
    assert "max_input_length" in output


def test_sweep_command_small(capsys):
    code = main([
        "sweep", "--engine", "prefillonly", "--setup", "h100",
        "--workload", "post-recommendation", "--num-users", "2", "--qps", "2.0",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "mean_latency_s" in output


def test_compare_command_small(capsys):
    code = main([
        "compare", "--setup", "l4", "--workload", "post-recommendation",
        "--num-users", "2", "--qps", "3.0",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "prefillonly" in output
    assert "tensor-parallel" in output


def test_unknown_engine_rejected():
    with pytest.raises(SystemExit):
        main(["sweep", "--engine", "sglang"])


def test_fleet_command_small(capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "4", "--replicas", "2", "--qps", "3.0",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fleet summary" in output
    assert "prefillonly-0" in output


def test_fleet_command_with_admission_and_autoscaling(capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "4", "--replicas", "1", "--router", "prefix-affinity",
        "--qps", "8.0", "--max-queue-depth", "4",
        "--autoscale-max", "3", "--scale-up-rps", "1.0",
        "--autoscale-window", "2.0", "--autoscale-cooldown", "2.0",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fleet summary" in output


def test_fleet_malformed_faults_file_exits_2_with_json_path(tmp_path, capsys):
    schedule = tmp_path / "faults.json"
    schedule.write_text(json.dumps(
        {"events": [{"kind": "crash", "replica": 0}]}
    ))
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "2", "--replicas", "2", "--qps", "3.0",
        "--faults", str(schedule),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "faults.events[0]" in err
    assert "missing required key 'at'" in err


def test_fleet_negative_seed_exits_2(capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "2", "--replicas", "2", "--seed", "-1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "--seed" in err


@pytest.mark.parametrize("replicas", ["0", "-2"])
def test_fleet_replicas_below_one_exits_2(replicas, capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "2", "--replicas", replicas,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "--replicas must be at least 1" in err


@pytest.mark.parametrize("shards", ["0", "-2"])
def test_fleet_shard_count_below_one_exits_2(shards, capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "2", "--replicas", "2", "--shards", shards,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "shards must be at least 1" in err


@pytest.mark.parametrize("shard_args", [
    ["--shards", "4"],                              # user-id router: decoupled
    ["--shards", "4", "--router", "least-loaded"],  # coupled: the fleet loop
    [],                                             # unsharded
], ids=["decoupled", "coupled", "unsharded"])
def test_fleet_negative_shard_workers_exits_2_on_every_path(shard_args, capsys):
    code = main([
        "fleet", "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "4", "--replicas", "4", "--shard-workers", "-1",
        *shard_args,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "shard_workers must be non-negative" in err


def test_scenario_run_malformed_config_exits_2_with_json_path(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "name": "bad",
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "arrival": "poisson", "arrival_params": {"rate": 2.0},
        }],
        "kv_tiers": {"enabled": True, "promotion_threshold": 0},
    }))
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "kv_tiers.promotion_threshold" in err


def test_scenario_run_unknown_key_exits_2_naming_the_key(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"name": "bad", "tenants": [], "repliacs": 2}))
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error:" in err
    assert "repliacs" in err


def test_spec_overview_lists_every_model(capsys):
    from repro.spec.models import DOCUMENTED_MODELS

    assert main(["spec"]) == 0
    output = capsys.readouterr().out
    for cls in DOCUMENTED_MODELS:
        assert cls.__name__ in output


def test_spec_single_model_prints_field_table(capsys):
    assert main(["spec", "--model", "KVTiersSpec"]) == 0
    output = capsys.readouterr().out
    assert "promotion_threshold" in output
    assert "demote_on_evict" in output
