"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
STEADY = str(REPO / "examples" / "scenarios" / "steady_poisson.json")


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


@pytest.mark.parametrize("command", ["fleet", "sweep"])
def test_nan_qps_exits_2_naming_the_rate(command, capsys):
    """Rejected when the arrival process is built, before any simulation."""
    code = main([
        command, "--setup", "h100", "--workload", "post-recommendation",
        "--num-users", "2", "--qps", "nan",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error: arrival_params.rate: rate must be a finite number, got nan" in err


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


@pytest.mark.parametrize("params, path", [
    ('{"num_users": NaN}', "tenants[0].workload_params.num_users"),
    ('{"num_users": 0}', "tenants[0].workload_params.num_users"),
    ('{"num_user": 4}', "tenants[0].workload_params.num_user"),
])
def test_scenario_run_bad_workload_params_exit_2_at_their_path(tmp_path, capsys,
                                                                params, path):
    config = tmp_path / "scenario.json"
    # Written by hand: Python's JSON reader accepts the NaN literal.
    config.write_text(
        '{"name": "bad", "tenants": [{"name": "t", "workload": '
        f'"post-recommendation", "workload_params": {params}, '
        '"arrival": "poisson", "arrival_params": {"rate": 2.0}}]}'
    )
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"prefillonly: error: {path}:" in err


@pytest.mark.parametrize("arrival, params, path", [
    ("poisson", {"rate": 2.0, "seed": -3}, "tenants[0].arrival_params.seed"),
    ("closed-loop", {"num_clients": 2.5}, "tenants[0].arrival_params.num_clients"),
], ids=["negative-seed", "fractional-clients"])
def test_scenario_run_bad_arrival_params_exit_2_at_their_path(tmp_path, capsys,
                                                               arrival, params, path):
    """Both reached numpy or list arithmetic unchecked and ended in a traceback."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "name": "bad",
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "workload_params": {"num_users": 2, "posts_per_user": 2},
            "arrival": arrival, "arrival_params": params,
        }],
    }))
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"prefillonly: error: {path}:" in err


_TENANT = {"name": "a", "workload": "post-recommendation",
           "workload_params": {"num_users": 2, "posts_per_user": 2},
           "arrival": "poisson", "arrival_params": {"rate": 2.0}}


@pytest.mark.parametrize("tenants, message", [
    ([{**_TENANT, "arrival": "mmpp",
       "arrival_params": {"base_rate": 5, "burst_rate": 1}}],
     "tenants[0].arrival_params.burst_rate: burst_rate (1) must exceed"),
    ([{**_TENANT, "workload_params": {"profile_min_tokens": 20000,
                                      "profile_max_tokens": 100}}],
     "tenants[0].workload_params.profile_min_tokens: profile_min_tokens"),
    ([{**_TENANT, "workload": "nope"}], "unknown workload 'nope'"),
    ([{**_TENANT, "arrival_params": {"rate": -1}}],
     "tenants[0].arrival_params.rate: rate must be greater than 0"),
    ([_TENANT, _TENANT], "tenants[1].name: duplicate tenant name 'a'"),
], ids=["mmpp-burst-below-base", "profile-range", "unknown-workload",
        "negative-rate", "repeated-tenant-name"])
def test_scenario_run_refuses_a_bad_tenant_exit_2(tmp_path, capsys, tenants, message):
    """Each parsed and then ended inside the run."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"name": "bad", "tenants": tenants}))
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"prefillonly: error: {message}" in err


def test_scenario_run_unknown_router_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "name": "bad", "router": "bogus",
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "arrival": "poisson", "arrival_params": {"rate": 2.0},
        }],
    }))
    code = main(["scenario", "run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error: unknown router 'bogus'" in err


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


# ------------------------------------------------------------ obs arguments

#: The obs subcommands that take ``--sample-interval``: their output reads
#: the samples.
_OBS_COMMANDS = {
    "export": ["export", "--format", "spans"],
    "summary": ["summary"],
    "alerts": ["alerts"],
}


@pytest.mark.parametrize("interval", ["nan", "inf"])
@pytest.mark.parametrize("command", list(_OBS_COMMANDS))
def test_obs_non_finite_sample_interval_exits_2(command, interval, capsys):
    code = main(["obs", *_OBS_COMMANDS[command], "--config", STEADY,
                 "--sample-interval", interval])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error: observability.sample_interval_s:" in err


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, so a hang fails on the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


_INTERVAL_ERROR = ("prefillonly: error: observability.sample_interval_s: "
                   "sample_interval_s must be at least 0.01")


@pytest.mark.parametrize("interval", ["0", "-1", "1e-300"])
def test_obs_non_positive_sample_interval_exits_2_instead_of_hanging(interval):
    """The sampler never advances at a zero or negative interval, and at a
    tiny one it takes forever, so a missing check hangs."""
    completed = _run_cli("obs", "summary", "--config", STEADY,
                         "--sample-interval", interval)
    assert completed.returncode == 2
    assert _INTERVAL_ERROR in completed.stderr


def test_scenario_config_with_a_tiny_sample_interval_exits_2(tmp_path):
    config = json.loads(Path(STEADY).read_text())
    config["observability"] = {"enabled": True, "sample_interval_s": 1e-300}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    completed = _run_cli("scenario", "run", "--config", str(path))
    assert completed.returncode == 2
    assert _INTERVAL_ERROR in completed.stderr


@pytest.mark.parametrize("interval", ["nan", "inf"])
@pytest.mark.parametrize("command", ["slo", "critical-path", "exemplars"])
def test_obs_commands_without_samples_reject_sample_interval(command, interval, capsys):
    """These print no samples, so they take no ``--sample-interval`` at all."""
    with pytest.raises(SystemExit) as excinfo:
        main(["obs", command, "--config", STEADY, "--sample-interval", interval])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --sample-interval" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["critical-path", "exemplars"])
def test_obs_negative_top_exits_2(command, capsys):
    code = main(["obs", command, "--config", STEADY, "--top", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "prefillonly: error: --top must be non-negative, got -1" in err
