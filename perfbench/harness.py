"""Measurement and correctness gate behind perfbench/run.py.

Imports ratebound, so run.py puts this checkout's src/ on the path first.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

from ratebound import sim_engine, verification

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_SPAWNS = 5
IMPORT_SPAWNS = 3
SPAWN_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "agent_periods_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span name, traced function, and the work it tallies besides its calls.
LAYERS = [
    ("sim_engine.dispatch.curve", "ratebound.sim_engine:mistake_curve", None),
    ("sim_engine.dispatch.chunk", "ratebound.sim_engine:_chunk_counts", None),
    (
        "sim_engine.draw",
        "ratebound.sim_engine:_draw_chunk",
        lambda work, args, out: work.update(
            {"draw.signals": out.size, "draw.bytes": out.nbytes}
        ),
    ),
    (
        "sim_engine.vector",
        "ratebound.sim_engine:_vector_counts",
        lambda work, args, out: work.update({"vector.agent_periods": args[1].size}),
    ),
    (
        "sim_engine.replay",
        "ratebound.sim_engine:_replay",
        lambda work, args, out: work.update({"replay.agent_periods": args[2].size}),
    ),
    ("sim_engine.binding", "ratebound.sim_engine:_Binding", None),
    (
        "sim_engine.enumerate",
        "ratebound.sim_engine:enumerate_exact",
        lambda work, args, out: work.update(
            {
                "enumerate.profiles": len(args[0].model.support)
                ** (args[0].network.n * args[0].horizon)
            }
        ),
    ),
    ("sim_engine.exact_curve", "ratebound.sim_engine:exact_autarky_curve", None),
    (
        "ldp_numerics.legendre",
        "ratebound.ldp_numerics:PairKernel.legendre",
        lambda work, args, out: work.update({"legendre.iterations": out.iterations}),
    ),
    (
        "rates.sweep",
        "ratebound.rates:sweep_figure1",
        lambda work, args, out: work.update({"sweep.points": len(out)}),
    ),
    ("network.schedule", "ratebound.network:build_schedule", None),
    ("network.replay_knowledge", "ratebound.network:replay_knowledge", None),
]
# Layers that compute. The dispatch spans, and check bodies around the
# layers, are what the trace leaves unattributed.
COMPUTE_LAYERS = [name for name, _, _ in LAYERS if ".dispatch." not in name]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- running the program ---------------------------------------------------------


class CurveRecorder:
    """Wrapper factory for mistake_curve: wall, work and counts digest per
    call. With `corrupt` set it damages each result, to show the gate bites."""

    def __init__(self, corrupt: str | None = None):
        self.corrupt = corrupt
        self.calls: list[tuple[float, int, str]] = []
        self.last = None

    def __call__(self, fn):
        @functools.wraps(fn)
        def recorded(config, *args, **kwargs):
            start = perf_counter()
            curve = fn(config, *args, **kwargs)
            wall = perf_counter() - start
            if self.corrupt is not None:
                curve = _corrupted(curve, self.corrupt)
            self.calls.append(
                (
                    wall,
                    workloads.agent_periods(config),
                    workloads.counts_digest(curve.counts),
                )
            )
            self.last = curve
            return curve

        return recorded

    @property
    def digests(self) -> list[str]:
        return [digest for _, _, digest in self.calls]


def _corrupted(curve, how: str):
    counts = curve.counts.copy()
    if how == "count":
        counts[-1, -1, -1] += 1
    else:  # "complement"
        counts = curve.trials - counts
    return dataclasses.replace(curve, counts=counts, probs=counts / curve.trials)


@dataclasses.dataclass
class Pass:
    wall: float
    recorder: CurveRecorder
    ops: int
    failures: list[str]
    check_walls: dict[str, float]


def one_pass(workload, inputs, corrupt: bool = False, tracer=None) -> Pass:
    """Run the workload once through the program's public entry points."""
    how = ("count" if workload.curve else "complement") if corrupt else None
    recorder = CurveRecorder(how)
    failures: list[str] = []
    check_walls: dict[str, float] = {}
    with spans.patched("ratebound.sim_engine:mistake_curve", recorder):
        start = perf_counter()
        if workload.curve:
            sim_engine.mistake_curve(inputs)
            wall = perf_counter() - start
        else:
            for name in inputs:
                check_start = perf_counter()
                with tracer.span(f"verification.{name}") if tracer else nullcontext():
                    (result,) = verification.run_checks([name])
                check_walls[name] = perf_counter() - check_start
                if not result.passed:
                    failures.append(f"check {name} failed: {result.detail}")
            wall = perf_counter() - start
    if workload.curve:
        failures += workloads.count_violations(inputs, recorder.last.counts)
    ops = 1 if workload.curve else len(inputs)
    return Pass(wall, recorder, ops, failures, check_walls)


@contextmanager
def serial_program():
    """One worker, through the program's own RATEBOUND_THREADS setting."""
    old = os.environ.get("RATEBOUND_THREADS")
    os.environ["RATEBOUND_THREADS"] = "1"
    try:
        yield
    finally:
        if old is None:
            del os.environ["RATEBOUND_THREADS"]
        else:
            os.environ["RATEBOUND_THREADS"] = old


class Gate:
    """Correctness gate. Counts must match the digest recorded for this seed,
    every pass must produce the reference pass's counts, and every check must
    pass. Tallies attempted and failed operations.

    digests.json covers a fixed seed range; at a seed outside it the counts
    are held only to pass agreement and `count_violations`, and `report`
    says so."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        recorded = workloads.recorded_digests().get(workload.digest_key(smoke), {})
        self.expected = recorded.get(str(seed))
        self.digest_unchecked = workload.curve and self.expected is None
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, p: Pass) -> None:
        """Judge one pass; the first pass judged becomes the reference."""
        problems = list(p.failures)
        if (
            self.workload.curve
            and self.expected is not None
            and p.recorder.digests != [self.expected]
        ):
            problems.append("counts digest differs from the one recorded for this seed")
        if self.reference is None:
            self.reference = p.recorder.digests
        elif p.recorder.digests != self.reference:
            problems.append("counts differ from the reference pass")
        self.attempted += p.ops
        self.failed += min(p.ops, len(problems))
        self.problems += problems


# -- measurements outside the process ----------------------------------------------


def _spawn(args: list[str]) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run(
        args, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SPAWN_TIMEOUT_S,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stderr


def setup_seconds(workload, seed: int, smoke: bool, spawns: int) -> float:
    """Median wall of fresh interpreters that import ratebound.cli and build
    the workload's inputs."""
    probe = [sys.executable, str(BENCH_DIR / "probe_setup.py"),
             "--workload", workload.name, "--seed", str(seed)]
    if smoke:
        probe.append("--smoke")
    return statistics.median(_spawn(probe)[0] for _ in range(spawns))


def _outermost_cumulative(rows, package: str) -> int:
    """Cumulative microseconds of `package` modules that were not imported
    from inside another module of the same package."""
    total = 0
    stack: list[tuple[int, str]] = []
    for depth, _, cumulative, name in reversed(rows):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == package and all(p != package for _, p in stack):
            total += cumulative
        stack.append((depth, top))
    return total


def import_split(spawns: int) -> dict[str, float]:
    """`-X importtime` of a cold `import ratebound.cli`, median of spawns.

    numpy, scipy and click get the cumulative time of their outermost
    imports; ratebound_s is the package's own module bodies; total_s is the
    whole import.
    """
    samples = []
    for _ in range(spawns):
        _, stderr = _spawn(
            [sys.executable, "-X", "importtime", "-c", "import ratebound.cli"]
        )
        rows = []
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            raw = fields[2][1:]
            depth = (len(raw) - len(raw.lstrip(" "))) // 2
            rows.append((depth, int(fields[0]), int(fields[1]), raw.strip()))
        own = sum(s for _, s, _, name in rows if name.split(".")[0] == "ratebound")
        samples.append(
            {
                "numpy_s": _outermost_cumulative(rows, "numpy") / 1e6,
                "scipy_s": _outermost_cumulative(rows, "scipy") / 1e6,
                "click_s": _outermost_cumulative(rows, "click") / 1e6,
                "ratebound_s": own / 1e6,
                "total_s": _outermost_cumulative(rows, "ratebound") / 1e6,
            }
        )
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(workload, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    def installed(package: str) -> str | None:
        try:
            return version(package)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": installed("numpy"),
        "scipy": installed("scipy"),
        "click": installed("click"),
        "git_commit": commit,
        "chunk": sim_engine.CHUNK,
        "workers": sim_engine.worker_count(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "ratebound_threads": os.environ.get("RATEBOUND_THREADS"),
    }


# -- the two kinds of run -----------------------------------------------------------


def timed_run(workload, seed, seconds, smoke=False, corrupt=False, spawns=SETUP_SPAWNS):
    """End-to-end metrics: a warm-up pass, then whole passes for `seconds`."""
    inputs = workload.build(seed, smoke)
    gate = Gate(workload, seed, smoke)
    gate.judge(one_pass(workload, inputs, corrupt))
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(one_pass(workload, inputs, corrupt))
        gate.judge(passes[-1])
    rss = peak_rss_mb()
    wall = statistics.median(p.wall for p in passes)
    work = sum(ap for _, ap, _ in passes[0].recorder.calls)
    metrics = {
        "wall_s": wall,
        "agent_periods_per_s": work / wall,
        "setup_s": setup_seconds(workload, seed, smoke, spawns),
        "peak_rss_mb": rss,
    }
    return gate, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, None


@contextmanager
def _traced(tracer: spans.Tracer):
    with ExitStack() as stack:
        for name, target, tally in LAYERS:
            stack.enter_context(spans.patched(target, tracer.wrapper(name, tally)))
        yield


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds: a no-op wrapped as the layers are, less
    the bare no-op, best of `repeats` loops of `calls`. Spans x this cost is
    the tracing overhead; the difference of a traced and an untraced pass is
    not, because single passes vary by far more than the spans cost."""

    def noop():
        return None

    def best(make):
        times = []
        for _ in range(repeats):
            fn = make()
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return min(times)

    traced = best(lambda: spans.Tracer(run="span-cost").wrapper("noop")(noop))
    return (traced - best(lambda: noop)) / calls


def traced_run(workload, seed, smoke=False, corrupt=False, spawns=IMPORT_SPAWNS):
    """Per-layer metrics from a pooled warm-up, a traced serial and a timed
    pooled pass over the same inputs. Both pooled passes must give the traced
    pass's counts."""
    inputs = workload.build(seed, smoke)
    gate = Gate(workload, seed, smoke)
    workers = sim_engine.worker_count()
    warm = one_pass(workload, inputs, corrupt)
    tracer = spans.Tracer(run=f"{workload.name}-seed{seed}")
    with serial_program(), _traced(tracer):
        traced = one_pass(workload, inputs, tracer=tracer)
    pooled = one_pass(workload, inputs, corrupt)
    for p in (traced, warm, pooled):
        gate.judge(p)

    work = tracer.work
    own = tracer.self_times()

    def busy(name):
        return own.get(name, 0.0)

    chunk_ms = sorted(d * 1e3 for d in tracer.durations("sim_engine.dispatch.chunk"))
    if len(chunk_ms) >= 20:  # the highest percentile with ten chunks beyond it
        tail = chunk_ms[-11]
        tail_pct = 100.0 * (len(chunk_ms) - 10) / len(chunk_ms)
    else:  # no percentile above the median has ten beyond it: the slowest
        tail, tail_pct = (chunk_ms[-1], 100.0) if chunk_ms else (0.0, 0.0)
    compute_s = sum(chunk_ms) / 1e3
    dispatch_wall = sum(wall for wall, _, _ in pooled.recorder.calls)
    covered = sum(busy(name) for name in COMPUTE_LAYERS)

    m = {
        "sim_engine.draw.calls": (work["sim_engine.draw"], "count"),
        "sim_engine.draw.signals": (work["draw.signals"], "count"),
        "sim_engine.draw.busy_s": (busy("sim_engine.draw"), "s"),
        "sim_engine.draw.ns_per_signal": (
            _ratio(busy("sim_engine.draw") * 1e9, work["draw.signals"]), "ns"),
        "sim_engine.draw.bytes_computed": (work["draw.bytes"], "B"),
        "sim_engine.vector.calls": (work["sim_engine.vector"], "count"),
        "sim_engine.vector.agent_periods": (work["vector.agent_periods"], "count"),
        "sim_engine.vector.busy_s": (busy("sim_engine.vector"), "s"),
        "sim_engine.vector.ns_per_agent_period": (
            _ratio(busy("sim_engine.vector") * 1e9, work["vector.agent_periods"]), "ns"),
        "sim_engine.replay.trajectories": (work["sim_engine.replay"], "count"),
        "sim_engine.replay.agent_periods": (work["replay.agent_periods"], "count"),
        "sim_engine.replay.busy_s": (busy("sim_engine.replay"), "s"),
        "sim_engine.replay.us_per_agent_period": (
            _ratio(busy("sim_engine.replay") * 1e6, work["replay.agent_periods"]), "us"),
        "sim_engine.binding.builds": (work["sim_engine.binding"], "count"),
        "sim_engine.binding.busy_s": (busy("sim_engine.binding"), "s"),
        "sim_engine.dispatch.curves": (work["sim_engine.dispatch.curve"], "count"),
        "sim_engine.dispatch.chunks": (len(chunk_ms), "count"),
        "sim_engine.dispatch.workers": (workers, "count"),
        "sim_engine.dispatch.compute_s": (compute_s, "s"),
        "sim_engine.dispatch.wall_s": (dispatch_wall, "s"),
        "sim_engine.dispatch.efficiency": (
            _ratio(compute_s, workers * dispatch_wall), "ratio"),
        "sim_engine.dispatch.chunk_p50_ms": (
            statistics.median(chunk_ms) if chunk_ms else 0.0, "ms"),
        "sim_engine.dispatch.chunk_tail_ms": (tail, "ms"),
        "sim_engine.dispatch.chunk_tail_pct": (tail_pct, "%"),
        "sim_engine.enumerate.profiles": (work["enumerate.profiles"], "count"),
        "sim_engine.enumerate.busy_s": (busy("sim_engine.enumerate"), "s"),
        "sim_engine.exact_curve.busy_s": (busy("sim_engine.exact_curve"), "s"),
        "ldp_numerics.legendre.calls": (work["ldp_numerics.legendre"], "count"),
        "ldp_numerics.legendre.newton_iters": (work["legendre.iterations"], "count"),
        "ldp_numerics.legendre.busy_s": (busy("ldp_numerics.legendre"), "s"),
        "rates.sweep.points": (work["sweep.points"], "count"),
        "rates.sweep.busy_s": (busy("rates.sweep"), "s"),
        "network.schedule.calls": (work["network.schedule"], "count"),
        "network.schedule.busy_s": (busy("network.schedule"), "s"),
        "network.replay_knowledge.calls": (work["network.replay_knowledge"], "count"),
        "network.replay_knowledge.busy_s": (busy("network.replay_knowledge"), "s"),
    }
    for name in workloads.VERIFY_CHECKS:
        m[f"verification.{name}.wall_s"] = (pooled.check_walls.get(name, 0.0), "s")
    for key, value in import_split(spawns).items():
        m[f"cli.import.{key}"] = (value, "s")
    m.update({
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (len(tracer.spans) * span_cost_s(), "s"),
        "trace.unattributed_s": (traced.wall - covered, "s"),
        "trace.coverage": (_ratio(covered, traced.wall), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return gate, m, tracer


def run(workload, seed, seconds, trace, smoke=False, corrupt=False, spawns=None):
    """One run; returns (result, gate, tracer or None)."""
    if trace:
        gate, metrics, tracer = traced_run(
            workload, seed, smoke, corrupt, spawns or IMPORT_SPAWNS)
    else:
        gate, metrics, tracer = timed_run(
            workload, seed, seconds, smoke, corrupt, spawns or SETUP_SPAWNS)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, gate, tracer


def report(result, gate, prov) -> None:
    """Human-readable lines, all starting with '#', ahead of the JSON line."""
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"# {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    fail_frac = _ratio(gate.failed, gate.attempted)
    print(f"# {'fail_frac':42s} {fail_frac:>16.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    for problem in dict.fromkeys(gate.problems):
        print(f"# FAILED: {problem}")
    if gate.digest_unchecked:
        print(f"# WARN: digests.json has no counts digest for seed {prov['seed']}; "
              "counts were checked only for agreement between passes and for "
              "the invariants of workloads.count_violations")


# -- entry points -------------------------------------------------------------------


def smoke() -> int:
    """Tiny sizes: every named metric prints with its unit, and a corrupted
    count makes the gate fail operations."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seed, seconds = workloads.DEFAULT_SEED, 0.2
    problems = []
    for workload in workloads.WORKLOADS.values():
        for trace in (0, 1):
            label = f"{workload.name} trace={trace}"
            clean, gate, _ = run(workload, seed, seconds, trace, smoke=True, spawns=1)
            report(clean, gate, provenance(workload, seed, seconds, trace, True))
            got = {k: v["unit"] for k, v in clean["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
            if clean["failed"]:
                problems.append(f"{label}: the clean run failed {clean['failed']} operations")
            bad, _, _ = run(
                workload, seed, seconds, trace, smoke=True, corrupt=True, spawns=1)
            if not bad["failed"]:
                problems.append(f"{label}: corrupted counts passed the gate")
            print(f"# smoke {label}: clean run {clean['failed']}/{clean['attempted']} "
                  f"failed, corrupted run {bad['failed']}/{bad['attempted']} failed")
    for problem in problems:
        print(f"# SMOKE FAILED: {problem}")
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(workload_name: str, seed: int | None, seconds: float, trace: int) -> int:
    workload = workloads.WORKLOADS[workload_name]
    seed = workloads.DEFAULT_SEED if seed is None else seed
    prov = provenance(workload, seed, seconds, trace, False)
    result, gate, tracer = run(workload, seed, seconds, trace)
    report(result, gate, prov)
    if tracer is not None:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{seed}.json"
        tracer.dump(path, {"provenance": prov, "result": result})
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
