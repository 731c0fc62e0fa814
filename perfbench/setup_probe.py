"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing numpy and the program, then generating the workload's
inputs and writing its config files:

    python3 perfbench/setup_probe.py --workload games --seed 1 --work DIR
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    import run

    run.import_program()
    import numpy  # noqa: F401
    import workloads  # imports every layer of the program

    workloads.build(args.workload, args.seed, run.ROOT, Path(args.work))
    print(f"{time.perf_counter() - START:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
