#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `run.py` once per seed (1..N) on each workload and prints, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A metric is steady enough to keep when its spread stays
within its bound; setup_s is exempt. Spreads above a third of the bound
are marked too, as that is the margin the benchmark aims for. The exit
code is 2 when a spread exceeds its bound.

    python3 perfbench/spread.py --seeds 10 [--workloads replay_walk,sync_races]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    steady = True
    for w in names:
        values = {}
        for seed in range(1, args.seeds + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  <-- above bound"
                steady = False
            elif name != "setup_s" and spread > bound / 3:
                flag = "  (above bound/3)"
            print(f"  {name:28} median {med:14.4f}  spread {spread:7.3f}  "
                  f"bound {bound:5.2f}{flag}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
