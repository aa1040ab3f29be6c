#!/usr/bin/env python3
"""The CI performance gate: perfbench's calibrated simulation rate.

Reads perfbench's end-to-end result files (<workload>-seed<N>-trace0.json)
from DIR and writes a record of their sim_mcycles_per_s: per workload the
seeds, values, q1, median and q3, with the host, size and seconds. Given a
baseline record of the same shape (BENCH_17.json), the exit status is 1 if

- a workload's median is below (1 - bound) x the baseline median, where
  bound is the sim_mcycles_per_s bound in BENCHMARK.json;
- any run is not correct, or has a failed operation;
- a workload in the baseline has no result, or one of another size.

Run from the repository root (the CI gate; re-baselining is seeds 1-10
without --baseline, committed as BENCH_17.json):

    python3 .github/scripts/perf_gate.py perf-gate --baseline BENCH_17.json --out BENCH_17_ci.json
"""

import argparse
import glob
import json
import os
import statistics
import sys

METRIC = "sim_mcycles_per_s"
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")


def load(path):
    with open(path) as f:
        return json.load(f)


def summarize(runs):
    runs.sort(key=lambda run: run["seed"])
    values = [round(run["metrics"][METRIC]["value"], 3) for run in runs]
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"seeds": [run["seed"] for run in runs], "values": values,
            "q1": round(q1, 3), "median": round(median, 3), "q3": round(q3, 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="directory of perfbench result files")
    parser.add_argument("--baseline", help="record to gate against")
    parser.add_argument("--out", required=True, help="record to write")
    args = parser.parse_args()

    benchmark = load(os.path.join(ROOT, "BENCHMARK.json"))
    bound = next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == METRIC)
    runs = [load(p) for p in sorted(glob.glob(os.path.join(args.results, "*-trace0.json")))]
    if not runs:
        sys.exit(f"perf gate: no perfbench results in {args.results}")
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    record = {
        "metric": METRIC,
        "host": runs[0]["host"],
        "size": runs[0]["size"],
        "seconds": runs[0]["seconds"],
        "command": " ".join(benchmark["command"]) + " --workload W --seed N"
        f" --seconds {runs[0]['seconds']} --trace 0 --out {args.results}",
        "workloads": {w: summarize(r) for w, r in sorted(by_workload.items())},
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    failures = [f"{r['workload']} seed {r['seed']}: correct {r['correct']}, failed {r['failed']}"
                for r in runs if not r["correct"] or r["failed"] > 0]
    if args.baseline:
        baseline = load(args.baseline)
        failures += [f"{r['workload']} seed {r['seed']}: {r['size']} size, baseline {baseline['size']}"
                     for r in runs if r["size"] != baseline["size"]]
        for workload, base in baseline["workloads"].items():
            now = record["workloads"].get(workload)
            if now is None:
                failures.append(f"{workload}: no result")
                continue
            floor = (1 - bound) * base["median"]
            verdict = "ok" if now["median"] >= floor else "REGRESSED"
            print(f"{workload}: median {now['median']:.1f} {METRIC} over seeds {now['seeds']}"
                  f" vs baseline {base['median']:.1f}, floor {floor:.1f}: {verdict}")
            if now["median"] < floor:
                failures.append(f"{workload}: median {now['median']:.1f} below floor {floor:.1f}")
    for failure in failures:
        print(f"perf gate FAILED: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
