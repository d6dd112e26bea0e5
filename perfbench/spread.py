#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py <workload> <seconds> <seed> [<seed> ...]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(the steadiness figure the bounds in BENCHMARK.json are checked against).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", seed, "--seconds", seconds, "--trace", "0"]
        done = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} {values}", file=sys.stderr)
        runs.append(result["metrics"])
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:16} median {med:12.6g}  spread {spread:7.3%}  "
              f"min {min(values):10.6g}  max {max(values):10.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
