#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/report.py --seed 1 --seconds 30

Runs bench/run.py once untraced and once traced per workload, each in its
own process so that peak memory is measured per run, and prints each run's
metric lines (name, value, unit and, for timings, the sample counts).
"""

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import POOLS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    status = 0
    for workload in sorted(POOLS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print(f"== {workload}, trace {trace}")
            print("\n".join(lines[:-1]) if proc.returncode == 0 else
                  proc.stdout + proc.stderr)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
