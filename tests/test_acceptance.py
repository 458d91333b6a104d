"""Acceptance gate: one verification check per criterion, reported line by line.

Each test runs the corresponding named check from ratebound.verification (the
same checks `ratebound verify` runs), prints a single PASS/FAIL line with the
check's evidence, and fails the suite if the criterion is not met. Runtime
budgets are enforced inside the checks themselves.
"""

import json
import os
import subprocess
import sys

import pytest

from ratebound import verification
from ratebound.verification import run_checks


def report(capsys, criterion, label, result):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(
            f"criterion {criterion} ({label}): {status} "
            f"[{result.seconds:.1f}s] {result.detail}"
        )
    assert result.passed, f"criterion {criterion} ({label}): {result.detail}"


def run_one(name):
    return run_checks([name])[0]


def test_criterion_1_rate_sweep_matches_closed_forms_and_grid_oracle(capsys):
    report(capsys, 1, "rate sweep vs closed form and grid oracle",
           run_one("rate-sweep"))


def test_criterion_2_conjugate_identities_hold_on_random_models(capsys):
    report(capsys, 2, "conjugate identities on random finite models",
           run_one("conjugate-identities"))


def test_criterion_3_autarky_curves_match_enumeration_sampling_and_fit(capsys):
    report(capsys, 3, "autarky curve exactness and window fit",
           run_one("autarky-exactness"))


def test_criterion_4_schedules_certify_full_vote_knowledge(capsys):
    report(capsys, 4, "schedule knowledge certification",
           run_one("schedule-coverage"))


def test_criterion_5_coordination_beats_autarky_in_the_tail(capsys):
    report(capsys, 5, "coordination dominance over exact autarky",
           run_one("coordination-dominance"))


def test_criterion_6_small_systems_match_brute_force(capsys):
    report(capsys, 6, "Monte Carlo vs full enumeration",
           run_one("small-system-exact"))


def test_criterion_7_every_strategy_respects_the_rate_cap(capsys):
    report(capsys, 7, "slowest-agent rate cap", run_one("slowest-agent-cap"))


def test_criterion_7_counts_the_votes_inside_each_fit_window(monkeypatch):
    # Votes fall at t = 1 + j * M for j >= 1: none on complete(10) (M = 81)
    # within (5, 35); t = 10, 19, 28, 37 on the 4-cycle (M = 9) within (10, 40).
    assert verification._votes_in((5, 35), 81) == 0
    assert verification._votes_in((10, 40), 9) == 4
    assert verification._votes_in((1, 10), 9) == 1
    assert verification._votes_in((11, 18), 9) == 0
    # A connected profile whose window holds fewer than 3 votes fails the check.
    monkeypatch.setattr(verification, "_votes_in", lambda window, block: 2)
    result = run_one("slowest-agent-cap")
    assert not result.passed
    assert "coordination-cycle" in result.detail
    assert "(2 votes in window)" in result.detail


def _cli(args, threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["RATEBOUND_THREADS"] = threads
    result = subprocess.run(
        [sys.executable, "-m", "ratebound.cli", *args],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def _rerun_cli_commands_byte_identically(tmp_path):
    sweep_args = ["sweep", "--from", "0.6", "--to", "0.9", "--points", "7"]
    if _cli(sweep_args) != _cli(sweep_args):
        return False

    schedule_args = ["schedule", "--random", "7", "--edge-prob", "0.35",
                     "--seed", "4"]
    if _cli(schedule_args) != _cli(schedule_args):
        return False

    config = {
        "model": {
            "states": [0, 1],
            "family": {"type": "binary_symmetric", "p": 0.75},
            "n_agents": 3,
        },
        "strategy": {"strategy": "coordination", "delta": 0.05},
        "horizon": 6,
        "replications": 2000,
        "seed": 17,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    curves = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4")):
        out = tmp_path / name
        _cli(["simulate", "--config", str(config_path), "--out", str(out)],
             threads=threads)
        curves.append(out.read_bytes())
    if curves[0] != curves[1]:
        return False

    fit_args = ["fit", "--curve", str(tmp_path / "a.csv"), "--window", "2:6"]
    return _cli(fit_args) == _cli(fit_args)


def test_criterion_8_reruns_are_byte_identical(capsys, tmp_path):
    result = run_one("determinism")
    cli_stable = _rerun_cli_commands_byte_identically(tmp_path)
    status = "PASS" if (result.passed and cli_stable) else "FAIL"
    detail = result.detail + (
        "; CLI reruns byte-identical across worker counts"
        if cli_stable
        else "; CLI RERUNS DIFFER"
    )
    with capsys.disabled():
        print(
            f"criterion 8 (identical reruns, any worker count): {status} "
            f"[{result.seconds:.1f}s] {detail}"
        )
    assert result.passed, result.detail
    assert cli_stable, "CLI reruns were not byte-identical"
