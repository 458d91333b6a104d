#!/usr/bin/env python3
"""Record the benchmark's reference data, from the root of a checkout.

    python3 perfbench/record.py digests --seeds 0-63
        Counts digests of `herd` and `relay` at each seed, and of the smoke
        sizes at the default seed, into perfbench/digests.json. Run this only
        on a commit whose counts are the reference: the gate then holds every
        later commit to them.

    python3 perfbench/record.py baseline --seeds 1-10
        Runs perfbench/run.py once per workload and seed with tracing off,
        then once per workload with tracing on at the default seed, and
        writes per-metric median, quartiles and spread (IQR / median) to
        perfbench/BASELINE.json. Prints each spread against a
        third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_digests(seeds: list[int]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from ratebound import sim_engine

    def digest(config):
        return workloads.counts_digest(sim_engine.mistake_curve(config).counts)

    out: dict[str, dict[str, str]] = {}
    for name in ("herd", "relay"):
        build = workloads.WORKLOADS[name].build
        out[name] = {str(seed): digest(build(seed)) for seed in seeds}
        out[name + "-smoke"] = {
            str(workloads.DEFAULT_SEED): digest(build(workloads.DEFAULT_SEED, True))
        }
        print(f"{name}: {len(seeds)} seeds recorded", flush=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _run(workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    """One benchmark run; seed None leaves run.py at its default seed."""
    args = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    proc = subprocess.run(
        args,
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "runs": len(values),
    }


def record_baseline(seeds: list[int]) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = _run(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f", failed {result['failed']}/{result['attempted']}", flush=True)
        end_to_end = {
            metric: _summary([r["metrics"][metric]["value"] for r in runs])
            for metric in bounds
        }
        traced = _run(name, None, spec["run_seconds"], 1)
        doc["workloads"][name] = {
            "end_to_end": end_to_end,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_failed": traced["failed"],
        }
        for metric, s in end_to_end.items():
            verdict = "ok" if s["spread"] < bounds[metric] / 3 else "WIDE"
            print(f"{name:12s} {metric:20s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound/3 {bounds[metric] / 3:.4f}) "
                  f"{verdict}", flush=True)
    with open(BENCH_DIR / "BASELINE.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=["digests", "baseline"])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,7")
    args = parser.parse_args()
    if args.what == "digests":
        record_digests(_seeds(args.seeds))
    else:
        record_baseline(_seeds(args.seeds))


if __name__ == "__main__":
    main()
