"""Config parsing diagnostics, CSV goldens, exit codes, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ratebound import cli as cli_module
from ratebound.cli import (
    ConfigError,
    RunConfig,
    emit_sweep_csv,
    main,
    parse_config,
    run_config_to_json,
)
from ratebound.network import (
    Network,
    build_schedule,
    network_to_json,
    replay_knowledge,
)
from ratebound.sim_engine import read_curve_csv
from ratebound.signal_models import (
    BinarySymmetric,
    SignalModel,
    StateSpace,
    model_to_json,
)
from ratebound.verification import CheckResult, _coverage_networks

GOLDEN_SWEEP = b"q,raut,rmaj\n0.750000,0.143841,0.549306\n"
# sha256 of the schedule documents of the schedule-coverage networks, then
# cycle(5), complete(1), complete(2) and complete(6), as `ratebound schedule`
# writes them, recorded when schedules were built as per-cell directive objects
GOLDEN_SCHEDULES = "65753ce0977031f4284d42fcf24a1a45963af15d620f1b7ad89206586fe389ae"


def binary_doc(p=0.75, n_agents=1):
    return model_to_json(
        SignalModel(StateSpace((0, 1)), BinarySymmetric(p), n_agents)
    )


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


# -- parse_config -----------------------------------------------------------------


def test_parse_config_fills_defaults_and_round_trips(tmp_path):
    doc = {
        "model": binary_doc(0.75, n_agents=2),
        "strategy": {"strategy": "coordination", "delta": 0.05},
        "horizon": 4,
        "replications": 10,
        "out": "curve.csv",
    }
    run = parse_config(write_json(tmp_path, "config.json", doc))
    assert run.sim.network == Network.complete(2)
    assert run.sim.seed == 0
    assert run.out == "curve.csv"
    echoed = run_config_to_json(run)
    rerun = parse_config(write_json(tmp_path, "echoed.json", echoed))
    assert rerun.sim == run.sim and rerun.out == run.out


def test_parse_config_reads_sections_from_side_files(tmp_path):
    model_path = write_json(tmp_path, "model.json", binary_doc(0.75, 3))
    net_path = write_json(
        tmp_path, "net.json", network_to_json(Network.directed_cycle(3))
    )
    doc = {
        "model": model_path,
        "network": net_path,
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 3,
        "replications": 5,
        "seed": 9,
    }
    run = parse_config(write_json(tmp_path, "config.json", doc))
    assert run.sim.network == Network.directed_cycle(3)
    assert run.sim.seed == 9
    assert run.out is None


def non_integer_config():
    """One non-integer count or index in each of six fields."""
    return {
        "model": dict(binary_doc(0.75), n_agents=2.9),
        "network": {"n": 2, "neighborhoods": [[0, 1.7], [0, 1]]},
        "strategy": {"strategy": "constant", "state": 1.5},
        "horizon": True,
        "replications": True,
        "seed": False,
    }


def test_parse_config_collects_every_violation(tmp_path):
    doc = {
        "model": binary_doc(0.4),
        "strategy": {"strategy": "telepathy"},
        "horizon": 0,
        "replications": "many",
        "seed": "tomorrow",
        "out": 7,
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "config.json", doc))
    violations = excinfo.value.violations
    assert len(violations) == 6
    assert any(v == "model: p must lie in (1/2,1)" for v in violations)
    assert any(v.startswith("strategy:") for v in violations)
    assert any(v.startswith("horizon:") for v in violations)
    assert any(v.startswith("replications:") for v in violations)
    assert any(v.startswith("seed:") for v in violations)
    assert any(v.startswith("out:") for v in violations)

    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "counts.json", non_integer_config()))
    fields = [v.split(":")[0] for v in excinfo.value.violations]
    assert fields == ["model", "network", "strategy", "horizon", "replications", "seed"]


def test_parse_config_names_both_sides_of_cross_field_conflicts(tmp_path):
    base = {"horizon": 3, "replications": 5}
    mismatch = dict(
        base,
        model=binary_doc(0.75, 2),
        network=network_to_json(Network.complete(3)),
        strategy={"strategy": "autarky-ml"},
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "a.json", mismatch))
    assert any(v.startswith("model/network:") for v in excinfo.value.violations)

    incomplete = dict(
        base,
        model=binary_doc(0.75, 3),
        network=network_to_json(Network.directed_cycle(3)),
        strategy={"strategy": "coordination"},
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "b.json", incomplete))
    assert any(
        v.startswith("strategy/network:") and "complete" in v
        for v in excinfo.value.violations
    )

    disconnected = dict(
        base,
        model=binary_doc(0.75, 3),
        network={"n": 3, "neighborhoods": [[0], [0, 1], [1, 2]]},
        strategy={"strategy": "coordination-connected"},
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "c.json", disconnected))
    assert any(
        v.startswith("strategy/network:") and "strongly connected" in v
        for v in excinfo.value.violations
    )

    wrong_family = dict(
        base,
        model={
            "states": [0, 1],
            "family": {
                "type": "finite",
                "support": [0, 1],
                "pmf": [[0.7, 0.3], [0.3, 0.7]],
            },
            "n_agents": 2,
        },
        strategy={"strategy": "odd-even"},
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "d.json", wrong_family))
    assert any(
        v.startswith("strategy/model:") for v in excinfo.value.violations
    )

    bad_delta = dict(
        base,
        model=binary_doc(0.75, 2),
        strategy={"strategy": "coordination", "delta": 5.0},
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_json(tmp_path, "e.json", bad_delta))
    assert any(
        v.startswith("strategy.delta:") for v in excinfo.value.violations
    )


def test_parse_config_reports_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(str(broken))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        parse_config(str(array))
    bad_section = {
        "model": 42,
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 2,
        "replications": 2,
    }
    with pytest.raises(ConfigError, match="object or a file path"):
        parse_config(write_json(tmp_path, "bad.json", bad_section))


# -- sweep CSV ----------------------------------------------------------------------


def test_emit_sweep_csv_golden_bytes(tmp_path):
    path = tmp_path / "sweep.csv"
    emit_sweep_csv([(0.75, 0.14384103622589045, 0.5493061443340549)], path)
    assert path.read_bytes() == GOLDEN_SWEEP


# -- command surface and exit codes ---------------------------------------------------


def test_sweep_command_prints_golden_row(capsys):
    code, out, _ = run_cli(
        ["sweep", "--from", "0.75", "--to", "0.75", "--points", "1"], capsys
    )
    assert code == 0
    assert out.encode() == GOLDEN_SWEEP


def test_sweep_command_writes_files_and_validates_bounds(tmp_path, capsys):
    target = tmp_path / "rates.csv"
    code, out, _ = run_cli(
        ["sweep", "--from", "0.75", "--to", "0.75", "--points", "1",
         "--out", str(target)],
        capsys,
    )
    assert code == 0 and "wrote" in out
    assert target.read_bytes() == GOLDEN_SWEEP
    for bad in (
        ["sweep", "--from", "0.4"],
        ["sweep", "--to", "1.0"],
        ["sweep", "--from", "0.9", "--to", "0.6"],
        ["sweep", "--points", "0"],
    ):
        code, _, err = run_cli(bad, capsys)
        assert code == 1
        assert "error:" in err
    code, out, _ = run_cli(
        ["rates", "sweep", "--from", "0.75", "--to", "0.75", "--points", "1"],
        capsys,
    )
    assert code == 0 and out.encode() == GOLDEN_SWEEP


def test_rates_show_reports_and_validates(tmp_path, capsys):
    model_path = write_json(tmp_path, "model.json", binary_doc(0.8, 2))
    code, out, _ = run_cli(["rates", "show", "--model", model_path], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["r_aut"]) == 2
    assert report["r_bdd"] > 0
    bad_path = write_json(tmp_path, "bad.json", binary_doc(0.3))
    code, _, err = run_cli(["rates", "show", "--model", bad_path], capsys)
    assert code == 1
    assert "p must lie in (1/2,1)" in err


def test_simulate_fit_pipeline(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    config = {
        "model": binary_doc(0.75, 2),
        "strategy": {"strategy": "coordination", "delta": 0.05},
        "horizon": 4,
        "replications": 300,
        "seed": 11,
        "out": str(out_path),
    }
    config_path = write_json(tmp_path, "config.json", config)
    code, out, _ = run_cli(["simulate", "--config", config_path], capsys)
    assert code == 0 and "wrote" in out
    curve = read_curve_csv(out_path)
    assert curve.trials == 300 and curve.n_agents == 2 and curve.horizon == 4

    code, out, _ = run_cli(
        ["fit", "--curve", str(out_path), "--window", "1:4"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["window"] == [1, 4]
    assert report["trials"] == 300
    assert set(report["pooled"]) == {"rate", "stderr", "usable", "n_points"}
    assert len(report["agents"]) == 2

    for window in ("abc", "1:2:3", "4:"):
        code, _, err = run_cli(
            ["fit", "--curve", str(out_path), "--window", window], capsys
        )
        assert code == 1 and "error:" in err
    code, _, err = run_cli(
        ["fit", "--curve", str(tmp_path / "nope.csv"), "--window", "1:4"],
        capsys,
    )
    assert code == 1


def test_simulate_surfaces_every_config_violation(tmp_path, capsys):
    config = {
        "model": binary_doc(0.4),
        "strategy": {"strategy": "telepathy"},
        "horizon": 0,
        "replications": 2,
    }
    config_path = write_json(tmp_path, "config.json", config)
    code, _, err = run_cli(["simulate", "--config", config_path], capsys)
    assert code == 1
    assert err.count("error:") == 3
    config_path = write_json(tmp_path, "counts.json", non_integer_config())
    code, _, err = run_cli(
        ["simulate", "--config", config_path, "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert code == 1
    assert err.count("error:") == 6


def test_simulate_requires_an_output_path(tmp_path, capsys):
    config = {
        "model": binary_doc(0.75),
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 2,
        "replications": 5,
    }
    config_path = write_json(tmp_path, "config.json", config)
    code, _, err = run_cli(["simulate", "--config", config_path], capsys)
    assert code == 1 and "output path" in err


def test_simulate_reports_write_failures_as_runtime_errors(tmp_path, capsys):
    config = {
        "model": binary_doc(0.75),
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 2,
        "replications": 5,
        "out": str(tmp_path / "no" / "such" / "dir" / "curve.csv"),
    }
    config_path = write_json(tmp_path, "config.json", config)
    code, _, err = run_cli(["simulate", "--config", config_path], capsys)
    assert code == 2 and "error:" in err


def test_schedule_command_certifies_networks(tmp_path, capsys):
    code, out, _ = run_cli(["schedule", "--cycle", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 5
    assert doc["block_length"] == 16
    assert doc["full_knowledge"] is True
    assert doc["voting_periods"] == {"first": 1, "stride": 16}
    assert len(doc["directives"]) == 15

    net_path = write_json(
        tmp_path, "net.json", network_to_json(Network.complete(3))
    )
    target = tmp_path / "schedule.json"
    code, out, _ = run_cli(
        ["schedule", "--network", net_path, "--out", str(target)], capsys
    )
    assert code == 0 and "wrote" in out
    assert json.loads(target.read_text())["full_knowledge"] is True

    code, _, err = run_cli(["schedule", "--cycle", "3", "--complete", "3"], capsys)
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(["schedule"], capsys)
    assert code == 1
    code, out, _ = run_cli(
        ["schedule", "--random", "6", "--edge-prob", "0.4", "--seed", "2"],
        capsys,
    )
    assert code == 0 and json.loads(out)["full_knowledge"] is True


def test_schedule_documents_match_their_golden_bytes():
    nets = _coverage_networks() + [
        Network.directed_cycle(5), Network.complete(1), Network.complete(2),
        Network.complete(6),
    ]
    digest = hashlib.sha256()
    for net in nets:
        schedule = build_schedule(net)
        doc = cli_module._schedule_doc(net, schedule, replay_knowledge(net, schedule))
        digest.update(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert len(nets) == 107
    assert digest.hexdigest() == GOLDEN_SCHEDULES


def test_usage_errors_exit_with_one(capsys):
    code, _, err = run_cli(["no-such-command"], capsys)
    assert code == 1
    code, _, err = run_cli(["verify", "--check", "bogus"], capsys)
    assert code == 1
    code, _, err = run_cli(["fit", "--window", "1:4"], capsys)
    assert code == 1


def test_verify_command_reports_and_sets_the_exit_code(capsys, monkeypatch):
    code, out, _ = run_cli(["verify", "--check", "rate-sweep"], capsys)
    assert code == 0
    assert out.startswith("PASS rate-sweep")
    assert "1/1 checks passed" in out

    monkeypatch.setattr(
        cli_module.verification,
        "run_checks",
        lambda names=None: [CheckResult("demo", False, "forced failure", 0.1)],
    )
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 3
    assert "FAIL demo" in out
    assert "0/1 checks passed" in out


# -- module entry point ----------------------------------------------------------------


def test_module_invocation_round_trip(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ratebound.cli", "sweep", "--from", "0.75",
         "--to", "0.75", "--points", "1"],
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout == GOLDEN_SWEEP

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    config = {
        "model": binary_doc(0.75, 2),
        "strategy": {"strategy": "odd-even"},
        "horizon": 5,
        "replications": 400,
        "seed": 3,
    }
    config_path = write_json(tmp_path, "config.json", config)
    for out_path, threads in ((out_a, "1"), (out_b, "2")):
        result = subprocess.run(
            [sys.executable, "-m", "ratebound.cli", "simulate", "--config",
             config_path, "--out", str(out_path)],
            capture_output=True,
            env={**os.environ, "RATEBOUND_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
    assert out_a.read_bytes() == out_b.read_bytes()
