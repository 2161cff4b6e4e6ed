#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and summarises the runs.

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. Run from the repository root:

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --workloads serve_warm --seeds 1-5 --trace 1
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

The command and the run length come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    tagged = {k: v for l in lines[:-1] for k, v in json.loads(l).items()}
    return json.loads(lines[-1]), tagged.get("report"), tagged.get("env")


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    spread = (q3 - q1) / abs(median) if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    result = {"run_seconds": bench["run_seconds"], "trace": opts.trace}
    for workload in workloads:
        gated, reports, runs = {}, {}, []
        for seed in opts.seeds:
            line, report, env = run(bench["command"], workload, seed,
                                    bench["run_seconds"], opts.trace)
            result.setdefault("env", env)
            runs.append({"seed": seed, "attempted": line["attempted"],
                         "failed": line["failed"]})
            for name, m in line["metrics"].items():
                gated.setdefault(name, []).append(m["value"])
            for name, m in (report or {}).get("metrics", {}).items():
                if not name.startswith("shape."):
                    reports.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()),
                flush=True)
        result[workload] = {
            "runs": runs,
            "metrics": {k: summary(v) for k, v in gated.items()},
            "report": {k: summary(v) for k, v in reports.items()},
        }
        for name, s in result[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload:12} {name:40} median {s['median']:.5g}"
                  f"  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {spread}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
