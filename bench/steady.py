#!/usr/bin/env python3
"""Run the benchmark once per seed and print the spread of each metric.

    python3 bench/steady.py --workload frame-1024 --runs 10 --first-seed 1

Each run is a separate process, one after the other, as the benchmark is run
in earnest. For every end-to-end metric the table gives the median and the
quartiles of the runs (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. It also
checks that the metric names each run prints match BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    values = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        command += ["--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result["metrics"]) != set(bounds):
            print(f"seed {seed}: metric names differ from BENCHMARK.json", file=sys.stderr)
            ok = False
        ok = ok and result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        shown = "" if args.trace else " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} {shown}")
        sys.stdout.flush()

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':44s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        limit = f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
        print(f"{name:44s} {q1:12.4f} {median:12.4f} {q3:12.4f} {spread:8.2%} {limit}")
    print("all runs correct" if ok else "NOT all runs correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
