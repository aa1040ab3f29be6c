#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Runs the command in BENCHMARK.json once per seed for each workload, then
records for every end-to-end metric its ten (or --runs) values, quartiles
(statistics.quantiles, n=4) and spread: the distance between the first and
third quartile as a share of the median. A spread must stay within the
metric's bound, and is steady below a third of it; setup_s is reported but
exempt.

Run from the repository root:

    python3 perfbench/steadiness.py                      # every workload
    python3 perfbench/steadiness.py --workloads paper-suite --runs 5

Each invocation appends one set of runs to --out (default
perfbench/steadiness.json) and compares every median with the previous set
that measured the same workload: a later set may not be worse by more than
the metric's bound. The exit status is 1 if a spread or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def first_line(args):
    try:
        out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host():
    return {
        "available_parallelism": len(os.sched_getaffinity(0)),
        "nproc": first_line(["nproc"]),
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
    }


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values, bound, exempt):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values,
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": exempt or spread <= bound,
        "steady": exempt or spread < bound / 3,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", default="perfbench/steadiness.json")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            sys.exit(f"unknown workload(s): {', '.join(unknown)}")
        names = wanted

    record = {"sets": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    previous = {}
    for earlier in record["sets"]:
        previous.update(earlier["workloads"])
    current = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host(),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }

    ok = True
    for workload in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = []
        for seed in seeds:
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        ok &= entry["correct"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarize(values, bound, name == "setup_s")
            entry["metrics"][name] = summary
            ok &= summary["within_bound"]
            verdict = ("steady" if summary["steady"] else
                       "within bound" if summary["within_bound"] else "OVER BOUND")
            line = (f"  {name:<20} median {summary['median']:.6g}  "
                    f"spread {summary['spread']:.4f}  bound {bound}  {verdict}")
            before = previous.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = summary["median"] / before["median"] - 1
                worse = change if metric["better"] == "lower" else -change
                line += f"  vs previous set {change:+.4f}"
                if worse > bound:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        current["workloads"][workload] = entry

    record["sets"].append(current)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
