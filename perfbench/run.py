#!/usr/bin/env python3
"""The ratebound benchmark: one workload at one seed, timed or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload herd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload relay --seed 1 --trace 1
    python3 perfbench/run.py --smoke

`--trace 0` times whole passes with tracing off and reports the end-to-end
metrics; `--trace 1` runs the per-layer trace. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ratebound benchmark")
    parser.add_argument("--workload", choices=["herd", "relay", "verify-light"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed phase repeats passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer trace")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and test the gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # Measure this checkout's sources and nothing installed elsewhere.
    if not (SRC / "ratebound" / "__init__.py").is_file():
        return _fail(f"no ratebound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import ratebound
    except ImportError as exc:
        return _fail(f"cannot import ratebound: {exc}")
    if Path(ratebound.__file__).resolve().parent != SRC / "ratebound":
        return _fail(f"imported ratebound from {ratebound.__file__}, not from {SRC}")

    import harness

    if args.smoke:
        return harness.smoke()
    return harness.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
