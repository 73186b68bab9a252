"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py <workload> <first-seed> <count> [--trace 0|1]

The spread of a metric is the distance between the first and third
quartile of its values across the runs, as a share of their median
(Python's ``statistics.quantiles(values, n=4)``). Run from the root of a
checkout; each run goes through ``perfbench/run.sh``.
"""

import json
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    trace = "0"
    if "--trace" in args:
        i = args.index("--trace")
        trace = args[i + 1]
        del args[i : i + 2]
    workload, first, count = args[0], int(args[1]), int(args[2])
    seconds = json.load(open("BENCHMARK.json"))["run_seconds"]
    values = {}
    for seed in range(first, first + count):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", trace],
            capture_output=True, text=True, check=False,
        )
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
            sys.exit(1)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<32} median {med:14.6f}  spread {spread:8.4f}  values {vals}")


if __name__ == "__main__":
    main()
