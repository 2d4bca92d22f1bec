"""Steadiness of the benchmark: run each workload on several seeds and
compare the spread of every end-to-end metric with its bound.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workloads rect-topology

Runs are made one after another, each in a fresh interpreter, on seeds 1
to ``--runs``, with the run length from BENCHMARK.json.  For each metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), their
distance as a share of the median, and the metric's bound.  The share of
failed checks must be the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for name in names:
        t0 = time.time()
        results = [run_once(name, seed, spec["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        same = len({r["failed"] / r["attempted"] for r in results}) == 1
        print(f"\n{name}: {args.runs} runs, seeds 1-{args.runs}, {time.time() - t0:.0f} s; "
              f"correct in all: {all(r['correct'] for r in results)}; "
              f"failed/attempted {shares} (same share: {same})")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6}  spread/bound")
        record[name] = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric:<14} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{bound:6.2f}  {spread / bound:.2f}")
            record[name][metric] = vals
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nvalues written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
