"""Set-up probe behind `setup_s`: a fresh interpreter imports the CLI and
builds one workload's inputs. perfbench/harness.py spawns it with src/ on
PYTHONPATH and times it from outside.
"""

import argparse

import ratebound.cli  # noqa: F401  (the cold import every CLI start pays)

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload].build(args.seed, args.smoke)


if __name__ == "__main__":
    main()
