"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steady.py --workload cli-cold --seeds 1-10 [--trace 0]

Runs ``bench/run.py`` one seed after another (never in parallel) with the
run length from BENCHMARK.json and prints, per metric, the median and the
quartile spread (Q3 - Q1) / median over the seeds, next to the metric's
bound.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s, correct={result['correct']}"
              f" failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = stats.quartile_spread(vs) if len(vs) >= 2 and any(vs) else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:34s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
