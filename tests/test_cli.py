"""Config parsing diagnostics, CSV goldens, exit codes, and the CLI surface."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ratebound import cli as cli_module
from ratebound import sim_engine
from ratebound.cli import main, parse_config
from ratebound.network import (
    Network,
    build_schedule,
    network_to_json,
)
from ratebound.sim_engine import InadmissibleConfig, SimConfig, read_curve_csv
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
    model_from_json,
    model_to_json,
)
from ratebound.strategies import (
    ConstantFirstPeriod,
    CoordinationComplete,
    strategy_to_json,
)
from ratebound.verification import CheckResult, _coverage_networks

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SWEEP = b"q,raut,rmaj\n0.750000,0.143841,0.549306\n"
# sha256 of the schedule documents of the schedule-coverage networks, then
# cycle(5), complete(1), complete(2) and complete(6), as `ratebound schedule`
# writes them, recorded when schedules were built as per-cell directive objects
GOLDEN_SCHEDULES = "65753ce0977031f4284d42fcf24a1a45963af15d620f1b7ad89206586fe389ae"
# sha256 of `ratebound schedule --complete 64`, recorded when the command
# built the document whole before writing it
GOLDEN_COMPLETE_64 = "e9d93e2fc22125e2d0d73fe53e958ea45934b254c3c9cb5590e05c55051e4025"


def binary_doc(p=0.75, n_agents=1):
    return model_to_json(
        SignalModel(StateSpace((0, 1)), BinarySymmetric(p), n_agents)
    )


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def config_doc(sim, out=None):
    """The config document that parse_config reads back as (sim, out)."""
    doc = {
        "model": model_to_json(sim.model),
        "network": network_to_json(sim.network),
        "strategy": strategy_to_json(sim.strategy),
        "horizon": sim.horizon,
        "replications": sim.replications,
        "seed": sim.seed,
    }
    if out is not None:
        doc["out"] = out
    return doc


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
    sim, out = parse_config(write_json(tmp_path, "config.json", doc))
    assert sim.network == Network.complete(2)
    assert sim.seed == 0
    assert out == "curve.csv"
    echoed = config_doc(sim, out)
    assert parse_config(write_json(tmp_path, "echoed.json", echoed)) == (sim, out)

    # a config built from numpy scalars stores plain ints and floats, so its
    # echo is written as JSON and reads back to an equal config; a pmf or
    # means given once per state is echoed as given, not per agent
    states = StateSpace((0, 1), np.array([0.4, 0.6]))
    families = (
        Gaussian(np.array([[0.0, 1.0], [0.5, 1.0]], dtype=np.float32), np.float32(1.5)),
        Gaussian(np.array([0.0, 1.0], dtype=np.float32), np.float32(1.5)),
        Finite((0, 1), np.array([[0.7, 0.3], [0.3, 0.7]])),
    )
    network = Network.from_neighborhoods(
        np.int64(2), ((np.int64(0), 1), (0, np.int32(1)))
    )
    for family, strategy in itertools.product(families, (
        CoordinationComplete(np.float32(0.05)), ConstantFirstPeriod(np.int64(1))
    )):
        sim = SimConfig(
            SignalModel(states, family, np.int64(2)), network, strategy,
            np.int64(4), np.int64(10), np.uint8(3),
        )
        echoed = config_doc(sim)
        rerun, out = parse_config(write_json(tmp_path, "numpy.json", echoed))
        assert rerun == sim and out is None and config_doc(rerun) == echoed
        assert hash(rerun) == hash(sim)


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
    sim, out = parse_config(write_json(tmp_path, "config.json", doc))
    assert sim.network == Network.directed_cycle(3)
    assert sim.seed == 9
    assert out is None


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


def non_real_models():
    """Model sections with one non-real value in each real field."""
    binary = binary_doc(0.75)
    gaussian = model_to_json(
        SignalModel(StateSpace((0, 1)), Gaussian((0.0, 1.0), 1.0))
    )
    finite = model_to_json(SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((0.7, 0.3), (0.3, 0.7)))
    ))
    return [
        dict(binary, family={"type": "binary_symmetric", "p": "0.75"}),
        dict(binary, prior=[0.5, True]),
        dict(gaussian, family=dict(gaussian["family"], sigma="1")),
        dict(gaussian, family=dict(gaussian["family"], means=[[0.0, None]])),
        dict(gaussian, family=dict(gaussian["family"], means=[[0.0, math.inf]])),
        dict(finite, family=dict(finite["family"], pmf=[[[0.0, True], [0.3, 0.7]]])),
    ]


def test_parse_config_collects_every_violation(tmp_path, monkeypatch):
    doc = {
        "model": binary_doc(0.4),
        "strategy": {"strategy": "telepathy"},
        "horizon": 0,
        "replications": "many",
        "seed": "tomorrow",
        "out": 7,
    }
    with pytest.raises(InadmissibleConfig) as excinfo:
        parse_config(write_json(tmp_path, "config.json", doc))
    violations = excinfo.value.violations
    assert len(violations) == 6
    assert any(v == "model: p must lie in (1/2,1)" for v in violations)
    assert any(v.startswith("strategy:") for v in violations)
    assert any(v.startswith("horizon:") for v in violations)
    assert any(v.startswith("replications:") for v in violations)
    assert any(v.startswith("seed:") for v in violations)
    assert any(v.startswith("out:") for v in violations)

    with pytest.raises(InadmissibleConfig) as excinfo:
        parse_config(write_json(tmp_path, "counts.json", non_integer_config()))
    fields = [v.split(":")[0] for v in excinfo.value.violations]
    assert fields == ["model", "network", "strategy", "horizon", "replications", "seed"]

    # every path through parse_config checks the workload once
    calls = []
    checked = sim_engine.config_violations

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(sim_engine, "config_violations", counted)
    monkeypatch.setattr(cli_module, "config_violations", counted)
    good = {"model": binary_doc(0.75, n_agents=3),
            "strategy": {"strategy": "coordination"}, "horizon": 4, "replications": 10}
    for config, lines in (
        (doc, 6), (good, 0), (dict(good, horizon=0), 1),
        (dict(good, network=network_to_json(Network.directed_cycle(3))), 1),
    ):
        calls.clear()
        try:
            parse_config(write_json(tmp_path, "once.json", config))
            found = []
        except InadmissibleConfig as exc:
            found = exc.violations
        assert len(calls) == 1 and len(found) == lines, (config, found)
    assert found == ["strategy/network: this strategy requires a complete network"]

    for model in non_real_models():
        doc = {"model": model, "strategy": {"strategy": "autarky-ml"},
               "horizon": 2, "replications": 5}
        with pytest.raises(InadmissibleConfig) as excinfo:
            parse_config(write_json(tmp_path, "reals.json", doc))
        [violation] = excinfo.value.violations
        assert violation.startswith("model: ") and "finite real number" in violation


def test_parse_config_names_both_sides_of_cross_field_conflicts(tmp_path):
    base = {"horizon": 3, "replications": 5}
    mismatch = dict(
        base,
        model=binary_doc(0.75, 2),
        network=network_to_json(Network.complete(3)),
        strategy={"strategy": "autarky-ml"},
    )
    with pytest.raises(InadmissibleConfig) as excinfo:
        parse_config(write_json(tmp_path, "a.json", mismatch))
    assert any(v.startswith("model/network:") for v in excinfo.value.violations)

    incomplete = dict(
        base,
        model=binary_doc(0.75, 3),
        network=network_to_json(Network.directed_cycle(3)),
        strategy={"strategy": "coordination"},
    )
    with pytest.raises(InadmissibleConfig) as excinfo:
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
    with pytest.raises(InadmissibleConfig) as excinfo:
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
    with pytest.raises(InadmissibleConfig) as excinfo:
        parse_config(write_json(tmp_path, "d.json", wrong_family))
    assert any(
        v.startswith("strategy/model:") for v in excinfo.value.violations
    )

    bad_delta = dict(
        base,
        model=binary_doc(0.75, 2),
        strategy={"strategy": "coordination", "delta": 5.0},
    )
    with pytest.raises(InadmissibleConfig) as excinfo:
        parse_config(write_json(tmp_path, "e.json", bad_delta))
    assert any(
        v.startswith("strategy.delta:") for v in excinfo.value.violations
    )


def test_parse_config_reports_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(InadmissibleConfig, match="cannot read"):
        parse_config(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InadmissibleConfig, match="malformed"):
        parse_config(str(broken))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(InadmissibleConfig, match="top level"):
        parse_config(str(array))
    bad_section = {
        "model": 42,
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 2,
        "replications": 2,
    }
    with pytest.raises(InadmissibleConfig, match="object or a file path"):
        parse_config(write_json(tmp_path, "bad.json", bad_section))


# -- command surface and exit codes ---------------------------------------------------


def test_sweep_command_prints_golden_row(capsys):
    code, out, _ = run_cli(
        ["sweep", "--from", "0.75", "--to", "0.75", "--points", "1"], capsys
    )
    assert code == 0
    assert out.encode() == GOLDEN_SWEEP


def test_sweep_command_prints_the_default_grid_golden(capsys):
    # The 200-point default sweep, recorded when the conjugates were solved
    # by safeguarded Newton; its six decimals must not move with the solver.
    with open(os.path.join(DATA, "sweep_default.csv"), "rb") as fh:
        expected = fh.read()
    code, out, _ = run_cli(["sweep"], capsys)
    assert code == 0
    assert out.encode() == expected


def test_sweep_command_writes_files_and_validates_bounds(tmp_path, capsys):
    target = tmp_path / "rates.csv"
    code, out, _ = run_cli(
        ["sweep", "--from", "0.75", "--to", "0.75", "--points", "1",
         "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == f"wrote {target}\n"
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
    # a file that cannot be written is a runtime error
    unwritable = tmp_path / "no" / "such" / "dir" / "rates.csv"
    code, out, err = run_cli(
        ["sweep", "--from", "0.75", "--to", "0.75", "--points", "1",
         "--out", str(unwritable)],
        capsys,
    )
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {unwritable}: ")


def test_sweep_help_lists_the_options_in_grid_order(capsys):
    code, out, _ = run_cli(["sweep", "--help"], capsys)
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()
              if line.lstrip().startswith("--")]
    assert listed == ["--from", "--to", "--points", "--out", "--help"]


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


def test_rates_show_pins_the_mixed_model_report(capsys):
    # Three states under a non-uniform prior, two agents with their own
    # 9-atom pmfs, and an atom agent 1 never draws: every rate constant,
    # byte for byte, as recorded when each lane took its own logs.
    model_path = os.path.join(DATA, "model_mixed.json")
    code, out, _ = run_cli(["rates", "show", "--model", model_path], capsys)
    assert code == 0
    with open(os.path.join(DATA, "rates_mixed.json")) as fh:
        assert out == fh.read()


def test_file_sections_name_their_field_in_errors(tmp_path, capsys):
    # rates show and schedule read their files as parse_config reads a
    # section given as a path, so an error carries the section's prefix
    model = dict(binary_doc(0.75), family={"type": "binary_symmetric", "p": "0.75"})
    model_path = write_json(tmp_path, "model.json", model)
    code, _, err = run_cli(["rates", "show", "--model", model_path], capsys)
    assert code == 1
    assert err == "error: model: p must be a finite real number, not '0.75'\n"
    net_path = write_json(tmp_path, "net.json", {"n": 3})
    code, _, err = run_cli(["schedule", "--network", net_path], capsys)
    assert code == 1
    assert err == 'error: network: network document needs "n" and "neighborhoods"\n'


@pytest.mark.parametrize("name", ["small", "autarky"])
def test_simulate_writes_the_golden_curves(name, tmp_path, capsys):
    # small: complete coordination; autarky: its count fill on a prior of
    # (0.4, 0.6); CI diffs both through the installed console script
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["simulate", "--config", os.path.join(DATA, f"config_{name}.json"),
         "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == f"wrote {target}\n"
    with open(os.path.join(DATA, f"curve_{name}.csv"), "rb") as fh:
        assert target.read_bytes() == fh.read()


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


def test_fit_names_a_reversed_window(capsys):
    curve = os.path.join(DATA, "curve_small.csv")
    code, out, err = run_cli(["fit", "--curve", curve, "--window", "6:2"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: window (6, 2) is reversed: its first period 6 comes after "
        "its last 2"
    ]
    for window in ("0:4", "1:7"):
        code, _, err = run_cli(["fit", "--curve", curve, "--window", window],
                               capsys)
        lo, hi = window.split(":")
        assert code == 1
        assert err == f"error: window ({lo}, {hi}) outside the curve's 1..6\n"


def test_fit_refuses_a_bad_prior_or_row_with_one_line(tmp_path, capsys):
    # the prior passes the state space's prior rule, and each row holds five
    # fields of the column types, or fit reads no rate
    rows = "".join(f"0,{t},{s},{40 - t},100\n" for t in (1, 2, 3) for s in (0, 1))
    for line, message in (
        ("# prior=-1,2", "prior must have full support (all entries positive)"),
        ("# prior=nan,nan", "a prior entry must be a finite real number, not nan"),
        ("# prior=inf,0", "a prior entry must be a finite real number, not inf"),
        ("# prior=0.9,0.3", "prior must sum to 1"),
        ("0,1,0,3", "expected the 5 fields agent,period,state,mistakes,trials, "
                    "found 4"),
        ("0,x,0,3,100", "non-integer period 'x'"),
    ):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"agent,period,state,mistakes,trials\n{line}\n{rows}")
        code, out, err = run_cli(["fit", "--curve", str(curve), "--window", "1:3"],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == f"error: curve file line 2: {message}\n"
    curve.write_text("agent,period,state,mistakes,trials\n# prior=0.5,0.5\n"
                     f"# prior=0.2,0.8\n{rows}")
    code, out, err = run_cli(["fit", "--curve", str(curve), "--window", "1:3"],
                             capsys)
    assert (code, out) == (1, "")
    assert err == ("error: curve file line 3: a second # prior= line (the first "
                   "is line 2)\n")
    curve.write_text(f"agent,period,state,mistakes,trials\n# prior=0.4,0.6\n{rows}")
    code, out, _ = run_cli(["fit", "--curve", str(curve), "--window", "1:3"], capsys)
    assert code == 0 and json.loads(out)["pooled"]["usable"]


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
    config = {"model": non_real_models()[0], "strategy": {"strategy": "autarky-ml"},
              "horizon": 2, "replications": 5}
    config_path = write_json(tmp_path, "reals.json", config)
    code, _, err = run_cli(
        ["simulate", "--config", config_path, "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 1
    assert err.count("error:") == 1 and "p must be a finite real number" in err
    assert not (tmp_path / "r.csv").exists()


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


def test_config_refusals_name_the_missing_or_unreadable_section(tmp_path, capsys):
    # each refusal through main(): exactly one error line and exit 1
    whole = {
        "model": binary_doc(0.75),
        "strategy": {"strategy": "autarky-ml"},
        "horizon": 2,
        "replications": 5,
    }
    missing = tmp_path / "no-such-model.json"
    for config, line in (
        ({k: v for k, v in whole.items() if k != "model"}, "error: model: required"),
        ({k: v for k, v in whole.items() if k != "strategy"},
         "error: strategy: required"),
        ({**whole, "model": str(missing)}, f"error: model: cannot read {missing}: "),
    ):
        config_path = write_json(tmp_path, "config.json", config)
        code, out, err = run_cli(
            ["simulate", "--config", config_path, "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(line), err
    assert not (tmp_path / "c.csv").exists()


def test_schedule_command_refuses_a_network_that_is_not_strongly_connected(
    tmp_path, capsys
):
    net_path = write_json(
        tmp_path, "net.json", {"n": 3, "neighborhoods": [[0], [0, 1], [1, 2]]}
    )
    code, out, err = run_cli(["schedule", "--network", net_path], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: a propagation schedule requires a strongly connected network"
    ]


def test_schedule_command_refusals_pin_their_error_lines(tmp_path, monkeypatch,
                                                        capsys):
    # every network refusal of `ratebound schedule`: exit 1 and exactly the
    # one error line, word for word, before distances or the connectivity
    # test run, so a schedule too large to hold builds none of its O(n^3)
    # arrays
    def fail(*args):
        raise AssertionError("a refused schedule reached the graph routines")
    monkeypatch.setattr("ratebound.network.distances", fail)
    monkeypatch.setattr("ratebound.network._reaches_everyone", fail)
    cases = [
        (["--complete", "2048"],
         "a propagation schedule on 2048 agents needs relay tables of "
         "8581545984 entries; at most 2^24 (256 agents) are supported"),
        (["--complete", "0"], "a network needs a positive integer number of agents"),
        (["--complete", "-3"], "a network needs a positive integer number of agents"),
        (["--cycle", "0"], "a network needs a positive integer number of agents"),
        (["--random", "0"], "a network needs a positive integer number of agents"),
    ]
    for name, hoods, line in (
        ("range", [[0, 3], [1], [2]],
         "network: neighborhood of agent 0 has out-of-range indices"),
        ("self", [[0, 1], [0], [2]], "network: agent 1 must observe herself"),
        ("integer", [[0, 1.5], [1], [2]],
         "network: neighborhood of agent 0 must list integer indices"),
    ):
        path = write_json(tmp_path, f"{name}.json", {"n": 3, "neighborhoods": hoods})
        cases.append((["--network", path], line))
    for args, line in cases:
        code, out, err = run_cli(["schedule", *args], capsys)
        assert (code, out, err) == (1, "", f"error: {line}\n"), args


def test_schedule_command_refuses_a_negative_random_seed(capsys):
    code, out, err = run_cli(["schedule", "--random", "3", "--seed", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: seed must be a nonnegative integer\n")


def test_rates_show_refuses_a_ragged_pmf_with_the_shape_line(tmp_path, capsys):
    family = {"type": "finite", "support": [0, 1], "pmf": [[0.5, 0.5], [1.0]]}
    model_path = write_json(tmp_path, "model.json", {"states": [0, 1], "family": family})
    code, out, err = run_cli(["rates", "show", "--model", model_path], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: model: pmf must have shape (n_agents, n_states, support) "
                   "or (n_states, support)\n")


_FINITE_MODEL = {
    "states": [0, 1], "prior": [0.5, 0.5],
    "family": {"type": "finite", "support": [0, 1], "pmf": [[0.7, 0.3], [0.3, 0.7]]},
    "n_agents": 2,
}
_NETWORK = {"n": 2, "neighborhoods": [[0, 1], [0, 1]]}
_CONFIG = {
    "model": _FINITE_MODEL, "network": _NETWORK,
    "strategy": {"strategy": "coordination", "delta": 0.05},
    "horizon": 3, "replications": 4, "seed": 0,
}
# one value of each JSON type
_JSON_VALUES = {"string": "ab", "number": 5, "list": [1, 2], "object": {"a": 1},
                "bool": True, "null": None}
# (document, path to a field, the JSON types the field takes)
_TYPED_FIELDS = [
    (_FINITE_MODEL, (), {"object"}),
    (_FINITE_MODEL, ("states",), {"list"}),
    (_FINITE_MODEL, ("prior",), {"list", "null"}),
    (_FINITE_MODEL, ("family",), {"object"}),
    (_FINITE_MODEL, ("family", "type"), {"string"}),
    (_FINITE_MODEL, ("family", "support"), {"list"}),
    (_FINITE_MODEL, ("family", "pmf"), {"list"}),
    (_FINITE_MODEL, ("n_agents",), {"number"}),
    ({"states": [0, 1], "family": {"type": "binary_symmetric", "p": 0.75}},
     ("family", "p"), {"number"}),
    ({"states": [0, 1], "family": {"type": "gaussian", "means": [0, 1], "sigma": 1}},
     ("family", "means"), {"list"}),
    ({"states": [0, 1], "family": {"type": "gaussian", "means": [0, 1], "sigma": 1}},
     ("family", "sigma"), {"number"}),
    (_NETWORK, (), {"object"}),
    (_NETWORK, ("n",), {"number"}),
    (_NETWORK, ("neighborhoods",), {"list"}),
    (_NETWORK, ("neighborhoods", 0), {"list"}),
    (_CONFIG, (), {"object"}),
    (_CONFIG, ("model",), {"object", "string"}),  # a string is a file path
    (_CONFIG, ("network",), {"object", "string"}),
    (_CONFIG, ("strategy",), {"object"}),
    (_CONFIG, ("strategy", "strategy"), {"string"}),
    (_CONFIG, ("strategy", "delta"), {"number", "null"}),
    ({**_CONFIG, "strategy": {"strategy": "constant", "state": 1}},
     ("strategy", "state"), {"number"}),
    (_CONFIG, ("horizon",), {"number"}),
    (_CONFIG, ("replications",), {"number"}),
    (_CONFIG, ("seed",), {"number"}),
    (_CONFIG, ("out",), {"string", "null"}),
]
_WRONG_ENTRIES = [
    # lists of the right length whose entries have the wrong type
    (_FINITE_MODEL, ("states",), [[0], [1]]),
    (_FINITE_MODEL, ("states",), [True, False]),
    (_FINITE_MODEL, ("states",), [0, None]),
    (_FINITE_MODEL, ("family", "support"), [[0], [1]]),
    (_FINITE_MODEL, ("family", "support"), [{"a": 1}, "x"]),
    (_FINITE_MODEL, ("prior",), ["a", "b"]),
    (_FINITE_MODEL, ("family", "pmf"), [[True, 0.5], [0.5, 0.5]]),
    (_NETWORK, ("neighborhoods", 0), [0, "1"]),
]
_WRONG_TYPED = [
    (doc, path, value)
    for doc, path, takes in _TYPED_FIELDS
    for kind, value in _JSON_VALUES.items()
    if kind not in takes
] + _WRONG_ENTRIES


def _with(doc, path, value):
    """doc with the field at path replaced by value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    parent[last] = value
    return doc


def _command(doc, path):
    """The section a refusal names and the command that reads doc."""
    if "horizon" in doc:
        return path[0] if path else "config", ["simulate", "--config"]
    if "n" in doc:
        return "network", ["schedule", "--network"]
    return "model", ["rates", "show", "--model"]


@pytest.mark.parametrize(
    "doc, path, value", _WRONG_TYPED,
    ids=[f"{_command(d, p)[0]}-{'.'.join(map(str, p)) or 'doc'}-"
         f"{json.dumps(v, separators=(',', ':'))}" for d, p, v in _WRONG_TYPED],
)
def test_wrong_typed_documents_are_refused_with_one_error_line(
        doc, path, value, tmp_path, capsys):
    # a value of the wrong JSON type, anywhere in a model, network, strategy
    # or whole config, exits 1 with one error line that names its section
    # and no Python type
    section, command = _command(doc, path)
    args = [*command, write_json(tmp_path, "doc.json", _with(doc, path, value))]
    if command[0] == "simulate":
        args += ["--out", str(tmp_path / "c.csv")]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, ""), err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {section}: "), err
    python_words = ("'int'", "'float'", "'str'", "'list'", "'dict'", "'bool'",
                    "NoneType", "unhashable", "iterable", "has no len",
                    "object of type")
    assert not any(word in err for word in python_words), err


def test_label_refusals_pin_their_error_lines(tmp_path, capsys):
    # a string is not a list of labels, and a label is a string or a number
    labels = "state labels must be a list of strings or finite numbers"
    support = "support must be a list of strings or finite numbers"
    for path, value, line in (
        (("states",), "ab", labels),
        (("states",), [[0], [1]], labels),
        (("family", "support"), "xy", support),
        (("family", "support"), 5, support),
    ):
        doc = _with(_FINITE_MODEL, path, value)
        model_path = write_json(tmp_path, "model.json", doc)
        code, out, err = run_cli(["rates", "show", "--model", model_path], capsys)
        assert (code, out, err) == (1, "", f"error: model: {line}\n"), (path, value)


def test_valid_documents_write_back_the_json_they_were_read_from(tmp_path):
    # labels of strings and numbers read and write back unchanged, as do
    # the shipped model and config files
    labelled = _with(_with(_FINITE_MODEL, ("states",), ["low", 2.5]),
                     ("family", "support"), ["x", 7])
    docs = [_FINITE_MODEL, labelled]
    for name in ("model_mixed.json", "config_small.json"):
        with open(os.path.join(DATA, name)) as fh:
            doc = json.load(fh)
        docs.append(doc.get("model", doc))
    for doc in docs:
        written = model_to_json(model_from_json(doc))
        assert json.dumps(written) == json.dumps(doc)
    sim, out = parse_config(os.path.join(DATA, "config_small.json"))
    with open(os.path.join(DATA, "config_small.json")) as fh:
        small = json.load(fh)
    echoed = config_doc(sim)
    del echoed["network"]  # the file leaves the complete network implicit
    assert out is None and json.dumps(echoed) == json.dumps(small)


def test_schedule_command_writes_only_certified_schedules(monkeypatch, capsys):
    # the document states "full_knowledge": true because a schedule the
    # replay refuses exits 2 before a byte of it is written
    def lying(net):
        schedule = build_schedule(net)
        harvest = schedule.harvest.copy()
        harvest[0, 0] = (0, 0)
        return replace(schedule, harvest=harvest)
    monkeypatch.setattr(cli_module, "build_schedule", lying)
    code, out, err = run_cli(["schedule", "--cycle", "4"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: harvest entry of agent 0 expected agent 0 to show "
                   "1's vote at offset 0\n")


def test_schedule_command_builds_a_complete_network(capsys):
    code, out, err = run_cli(["schedule", "--complete", "4"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["block_length"] == 9  # 1 + n(n - 2)
    assert doc["full_knowledge"] is True


def test_schedule_documents_match_their_golden_bytes():
    nets = _coverage_networks() + [
        Network.directed_cycle(5), Network.complete(1), Network.complete(2),
        Network.complete(6),
    ]
    digest = hashlib.sha256()
    for net in nets:
        text = "".join(cli_module._schedule_text(net, build_schedule(net)))
        digest.update(text.encode())
    assert len(nets) == 107
    assert digest.hexdigest() == GOLDEN_SCHEDULES


def test_schedule_command_writes_a_large_document_in_bounded_memory(tmp_path):
    # --complete 64: 3,968 directive rows of 64 directives, 16.9 MB of JSON.
    # Built whole, one dict per directive, the document peaked at 238 MB of
    # resident memory; written as it is made, it stays under 100 MB. The
    # wrapper's RUSAGE_CHILDREN reads only the command's own peak.
    out = tmp_path / "complete64.json"
    code = """if True:
        import resource, subprocess, sys
        subprocess.run([sys.executable, "-m", "ratebound.cli", "schedule",
                        "--complete", "64", "--out", sys.argv[1]], check=True)
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    """
    result = subprocess.run([sys.executable, "-c", code, str(out)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) / 1024 < 100.0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_COMPLETE_64


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


def test_the_process_pool_loads_only_for_a_pooled_curve():
    # importing concurrent.futures.process costs 20-30 ms of a cold start;
    # the CLI and in-process curves never use it
    code = """if True:
        import sys
        import ratebound.cli
        from ratebound import SimConfig, mistake_curve
        from ratebound.network import Network
        from ratebound.signal_models import BinarySymmetric, SignalModel, StateSpace
        from ratebound.strategies import CoordinationComplete
        loaded = lambda: "concurrent.futures.process" in sys.modules
        print(loaded())
        model = SignalModel(StateSpace((0, 1)), BinarySymmetric(0.75), 3)
        config = SimConfig(model, Network.complete(3), CoordinationComplete(),
                           5, 100, 0)
        mistake_curve(config)
        print(loaded())
    """
    env = {k: v for k, v in os.environ.items() if k != "RATEBOUND_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
