#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):
    python3 perfbench/stability.py [--workloads table,verify,padic,field]
                                   [--seeds 10] [--first-seed 1]
                                   [--trace-seed N] [--out FILE]

Each run is `perfbench/run.py --workload W --seed S --seconds T --trace 0`
with T = run_seconds from BENCHMARK.json, one after another.  For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles
with n=4), the spread (Q3 - Q1) / median and the metric's bound; a spread
above a third of its bound is flagged.  --trace-seed adds one traced run
per workload.  --out writes everything, environment included, as JSON:
that is how a trajectory point under perfbench/trajectory/ is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
              for line in lines if line.startswith(("# environment ", "# wall "))}
    result = json.loads(lines[-1])
    if "wall" in tagged:
        result["wall"] = tagged["wall"]
    return result, tagged.get("environment", {})


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is not None and spread < bound / 3, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, env = run_once(workload, seed, bench["run_seconds"], 0)
            report.setdefault("environment", env)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                  + " " + " ".join(f"{k}={v:.5g}" for k, v in result.get("wall", {}).items()),
                  flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs], bound)
            entry["summary"][metric] = s
            flag = "" if s["steady"] or metric == "setup_s" else "  <-- above bound/3"
            print(f"{workload} {metric}: median {s['median']:.5g} Q1 {s['q1']:.5g} "
                  f"Q3 {s['q3']:.5g} spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        for key in runs[0].get("wall", {}):
            s = summarize([r["wall"][key] for r in runs], None)
            entry["summary"][key] = s
            print(f"{workload} {key}: median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)
        if args.trace_seed is not None:
            traced, _ = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed, **traced}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
