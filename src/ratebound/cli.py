"""Command line: rate reports, sweeps, simulation, fitting, schedules, verify.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 verification
failure.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import click
import numpy as np

from ratebound import verification
from ratebound.network import (
    Network,
    build_schedule,
    harvest_owners,
    network_from_json,
    replay_knowledge,
)
from ratebound.rates import rate_report, sweep_figure1
from ratebound.signal_models import SignalModel, model_from_json
from ratebound.sim_engine import (
    InadmissibleConfig,
    SimConfig,
    config_violations,
    fit_rate,
    mistake_curve,
    read_curve_csv,
    write_curve_csv,
)
from ratebound.strategies import strategy_from_json


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InadmissibleConfig([f"{what}: cannot read {path}: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise InadmissibleConfig(
            [f"{what}: malformed JSON in {path}: {exc}"]
        ) from None


def _read_section(doc: dict, key: str, reader, violations: list[str]):
    """reader applied to the section doc[key], given inline as an object or
    as a path to a JSON file; None, with the reasons added to violations
    as `key: ...`, when it cannot be read."""
    value = doc[key]
    try:
        if isinstance(value, str):
            value = _load_json(value, key)
        elif not isinstance(value, dict):
            raise ValueError("must be an object or a file path")
        return reader(value)
    except InadmissibleConfig as exc:
        violations.extend(exc.violations)
    except (ValueError, TypeError) as exc:
        violations.append(f"{key}: {exc}")
    return None


def _read_file(path: str, key: str, reader):
    """reader applied to the JSON file at path, read as parse_config reads
    a `key` section given as a path."""
    violations: list[str] = []
    value = _read_section({key: path}, key, reader, violations)
    if violations:
        raise InadmissibleConfig(violations)
    return value


def parse_config(path: str) -> tuple[SimConfig, str | None]:
    """Parse and fully validate a simulation config file into the engine
    config and the config's own output path.

    Raises InadmissibleConfig carrying the complete list of violations, each
    prefixed with the config field it concerns.
    """
    doc = _load_json(path, "config")
    if not isinstance(doc, dict):
        raise InadmissibleConfig(["config: top level must be a JSON object"])
    violations: list[str] = []

    model: SignalModel | None = None
    if "model" not in doc:
        violations.append("model: required")
    else:
        model = _read_section(doc, "model", model_from_json, violations)
    if "network" in doc:
        network = _read_section(doc, "network", network_from_json, violations)
    else:
        network = None if model is None else Network.complete(model.n_agents)

    strategy = None
    if "strategy" not in doc:
        violations.append("strategy: required")
    else:
        try:
            strategy = strategy_from_json(doc["strategy"])
        except (ValueError, TypeError) as exc:
            violations.append(f"strategy: {exc}")

    workload = (model, network, strategy, doc.get("horizon"),
                doc.get("replications"), doc.get("seed", 0))
    sim = None
    if violations:  # a section could not be read: check what was
        violations.extend(config_violations(*workload))
    else:
        try:
            sim = SimConfig(*workload)
        except InadmissibleConfig as exc:
            violations.extend(exc.violations)
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        violations.append("out: must be a path string")
    if violations:
        raise InadmissibleConfig(violations)
    return sim, out


def _fit_dict(fit) -> dict:
    return {
        "rate": None if math.isnan(fit.rate) else fit.rate,
        "stderr": None if math.isnan(fit.stderr) else fit.stderr,
        "usable": fit.usable,
        "n_points": fit.n_points,
    }


def _schedule_text(net: Network, schedule, knowledge):
    """The schedule document, as json.dumps(doc, indent=2, sort_keys=True)
    writes it, in pieces of one directive row or one agent's harvest, each
    made as it is yielded: the document is never whole in memory."""

    def listed(key, rows):
        # each row as json.dumps writes it two levels deep
        opening = f'  "{key}": ['
        for row in rows:
            text = json.dumps(row, indent=2, sort_keys=True)
            yield f"{opening}\n    " + text.replace("\n", "\n    ")
            opening = ","
        yield "\n  ],\n" if opening == "," else f"{opening}],\n"

    def directives():
        # a relay naming its own agent repeats her vote (offset 0)
        for sources, offsets in zip(schedule.relay_source, schedule.relay_offset):
            yield [
                {"action": "repeat", "offset": offset}
                if source == i
                else {"action": "imitate", "source": source, "offset": offset}
                for i, (source, offset) in enumerate(zip(sources.tolist(),
                                                         offsets.tolist()))
            ]

    harvest = np.concatenate([harvest_owners(net.n)[..., None], schedule.harvest], -1)
    yield f'{{\n  "block_length": {schedule.M},\n'
    yield from listed("directives", directives())
    yield f'  "full_knowledge": {"true" if knowledge.all() else "false"},\n'
    yield from listed("harvest", (row.tolist() for row in harvest))
    yield (f'  "n": {net.n},\n  "voting_periods": {{\n    "first": 1,\n'
           f'    "stride": {schedule.M}\n  }}\n}}')


def _echo_or_write(pieces, out: str | None) -> None:
    """Write the text pieces, in order, to stdout or to the file out."""
    if out is None:
        for piece in pieces:
            click.echo(piece, nl=False)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise OSError(f"cannot write {out}: {exc}") from None
        click.echo(f"wrote {out}")


@click.group(name="ratebound")
def cli() -> None:
    """Learning-rate constants and strategy simulations on observation networks."""


@cli.group(name="rates")
def rates_group() -> None:
    """Rate constants of a signal model."""


@rates_group.command(name="show")
@click.option("--model", "model_path", required=True, help="Model JSON file.")
def rates_show(model_path: str) -> None:
    """Print the full rate report of a model as JSON."""
    model = _read_file(model_path, "model", model_from_json)
    violations = model.validate()
    if violations:
        raise InadmissibleConfig([f"model: {v}" for v in violations])
    report = rate_report(model)
    click.echo(json.dumps(report.as_dict(), indent=2, sort_keys=True))


@cli.command(name="sweep")
# declared in the order --help lists them
@click.option("--from", "from_q", type=float, default=0.51, show_default=True,
              help="Lowest signal precision.")
@click.option("--to", "to_q", type=float, default=0.99, show_default=True,
              help="Highest signal precision.")
@click.option("--points", type=int, default=200, show_default=True,
              help="Number of grid points.")
@click.option("--out", type=str, default=None,
              help="CSV file (stdout when omitted).")
def sweep(from_q: float, to_q: float, points: int, out: str | None) -> None:
    """Sweep autarky and bounded rates across signal precisions."""
    if not (0.5 < from_q < 1.0 and 0.5 < to_q < 1.0):
        raise ValueError("sweep bounds must lie in (1/2, 1)")
    if to_q < from_q:
        raise ValueError("--to must be at least --from")
    if points < 1:
        raise ValueError("--points must be a positive integer")
    grid = [from_q] if points == 1 else np.linspace(from_q, to_q, points)
    # byte-stable CSV: `q,raut,rmaj` header, 6 decimals, LF endings
    _echo_or_write(["q,raut,rmaj\n", *(
        f"{q:.6f},{raut:.6f},{rmaj:.6f}\n" for q, raut, rmaj in sweep_figure1(grid)
    )], out)


@cli.command(name="simulate")
@click.option("--config", "config_path", required=True,
              help="Simulation config JSON file.")
@click.option("--out", type=str, default=None,
              help="Curve CSV file (overrides the config's own).")
def simulate(config_path: str, out: str | None) -> None:
    """Estimate a mistake curve by Monte Carlo and write it as CSV."""
    sim, config_out = parse_config(config_path)
    target = out or config_out
    if target is None:
        raise ValueError('an output path is required (--out or "out" in the config)')
    curve = mistake_curve(sim)
    write_curve_csv(curve, target)
    click.echo(f"wrote {target}")


@cli.command(name="fit")
@click.option("--curve", "curve_path", required=True, help="Curve CSV file.")
@click.option("--window", required=True,
              help="Fit window as first:last (1-based periods, inclusive).")
def fit(curve_path: str, window: str) -> None:
    """Fit exponential decay rates on a stored curve; prints a JSON report."""
    parts = window.split(":")
    if len(parts) != 2:
        raise ValueError("window must look like first:last, e.g. 5:20")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("window must look like first:last, e.g. 5:20") from None
    try:
        curve = read_curve_csv(curve_path)
    except OSError as exc:
        raise ValueError(f"cannot read {curve_path}: {exc}") from None
    report = {
        "window": [lo, hi],
        "trials": curve.trials,
        "pooled": _fit_dict(fit_rate(curve, (lo, hi))),
        "agents": [
            _fit_dict(fit_rate(curve, (lo, hi), agent=i))
            for i in range(curve.n_agents)
        ],
    }
    click.echo(json.dumps(report, indent=2, sort_keys=True))


@cli.command(name="schedule")
@click.option("--network", "network_path", type=str, default=None,
              help="Network JSON file.")
@click.option("--complete", "complete_n", type=int, default=None,
              help="Use a complete network of this size.")
@click.option("--cycle", "cycle_n", type=int, default=None,
              help="Use a directed cycle of this size.")
@click.option("--random", "random_n", type=int, default=None,
              help="Use a random strongly connected network of this size.")
@click.option("--edge-prob", type=float, default=0.35, show_default=True,
              help="Edge probability for --random.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for --random.")
@click.option("--out", type=str, default=None,
              help="Schedule JSON file (stdout when omitted).")
def schedule(network_path, complete_n, cycle_n, random_n, edge_prob, seed, out):
    """Build and certify the vote-propagation schedule of a network."""
    sources = [s for s in (network_path, complete_n, cycle_n, random_n)
               if s is not None]
    if len(sources) != 1:
        raise ValueError(
            "choose exactly one of --network, --complete, --cycle, --random"
        )
    if network_path is not None:
        net = _read_file(network_path, "network", network_from_json)
    elif complete_n is not None:
        net = Network.complete(complete_n)
    elif cycle_n is not None:
        net = Network.directed_cycle(cycle_n)
    else:
        net = Network.random_strongly_connected(random_n, edge_prob, seed)
    sched = build_schedule(net)
    knowledge = replay_knowledge(net, sched)
    _echo_or_write(itertools.chain(_schedule_text(net, sched, knowledge), ["\n"]), out)


@cli.command(name="verify")
@click.option("--check", "checks", multiple=True,
              type=click.Choice(verification.CHECK_NAMES),
              help="Run only these checks (repeatable; default: all).")
def verify(checks) -> None:
    """Run the verification suite; exits 3 if any check fails."""
    results = verification.run_checks(list(checks) or None)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        click.echo(
            f"{status} {result.name} ({result.seconds:.1f}s): {result.detail}"
        )
    failed = sum(1 for r in results if not r.passed)
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        sys.exit(3)


def main(argv=None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except InadmissibleConfig as exc:
        for violation in exc.violations:
            click.echo(f"error: {violation}", err=True)
        sys.exit(1)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except (RuntimeError, OSError, MemoryError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
