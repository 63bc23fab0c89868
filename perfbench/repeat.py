"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/repeat.py --workload approx_study --seeds 1-10 [--trace 0]

Runs one at a time from the current directory (the root of a checkout)
with BENCHMARK.json's ``run_seconds``.  For each metric it prints the
median, the quartiles and their distance as a share of the median, and,
for end-to-end metrics, that share against the metric's bound.  The last
line is a JSON object with every run's result and the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
        row = summary[name]
        line = f"{name:<52} median {row['median']:14.6g}"
        if "spread" in row:
            line += f"  q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  spread {row['spread']:7.2%}"
        if bounds.get(name) is not None and "spread" in row:
            line += f"  (bound {bounds[name]:.0%}, a third is {bounds[name] / 3:.2%})"
        print(line)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "runs": runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
