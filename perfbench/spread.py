#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for tuning the benchmark.

    python3 perfbench/spread.py null_stack [kvd_stacked ...] [--seeds 1-10]

Runs perfbench/run.py once per seed and workload, sequentially, and
prints for each end-to-end metric its median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to a third of the metric's bound from BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    seeds = range(1, 11)
    names = []
    it = iter(argv)
    for a in it:
        if a == "--seeds":
            lo, hi = next(it).split("-")
            seeds = range(int(lo), int(hi) + 1)
        else:
            names.append(a)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in names:
        values = {}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert res["correct"] and res["failed"] == 0, (w, seed, res)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(w, seed, {k: round(m["value"], 4)
                            for k, m in res["metrics"].items()}, flush=True)
        for k, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"{w} {k}: median {med:.6g} spread {(q[2] - q[0]) / med:.4f}"
                  f" (bound/3 {bounds[k] / 3:.4f})", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
