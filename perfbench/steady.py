#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, for every metric, the
median, the quartiles and the spread (interquartile distance as a share of
the median) next to the bound BENCHMARK.json sets for it.

    python3 perfbench/steady.py --workload serve --seeds 1-10

Use it to size bounds: a bound should sit well above the spread seen here,
and the medians of two such sets, run apart in time, should agree within it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True, cwd=root)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, q2, q3 = stats.quartiles(vs)
        bound = bounds.get(name)
        print(f"{name:30} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{stats.spread(vs):8.3f} {bound if bound else '':>6}")


if __name__ == "__main__":
    main()
