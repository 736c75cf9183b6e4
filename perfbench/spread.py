#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and spread (interquartile distance over the median)
against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads serve_read,stream_resolve --seeds 1-10

Run from the repository root. Each run's JSON result line is appended to
--log, so two sets of runs can be compared afterwards with --compare.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def report(bench, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = True
    for w, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{w}: {len(results)} runs, {len(bad)} with failures or wrong output")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(vals)
            flag = "" if sp < bound / 3 or name == "setup_s" else ("  WIDE" if sp >= bound else "  >bound/3")
            if sp >= bound and name != "setup_s":
                worst = False
            print(f"  {name:14s} median {med:12.4f}  spread {sp:6.3f}  bound {bound:.2f}{flag}")
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log", default=".bench_build/spread.jsonl")
    ap.add_argument("--compare", action="store_true", help="only report the runs already in --log")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    if args.compare:
        for line in open(args.log):
            rec = json.loads(line)
            if rec["workload"] in runs:
                runs[rec["workload"]].append(rec["result"])
    else:
        with open(args.log, "a") as log:
            for w in workloads:
                for seed in seeds_of(args.seeds):
                    cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                    p = subprocess.run(cmd, capture_output=True, text=True)
                    lines = p.stdout.strip().splitlines()
                    if p.returncode != 0 or not lines:
                        print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                        continue
                    res = json.loads(lines[-1])
                    runs[w].append(res)
                    log.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
                    log.flush()
    sys.exit(0 if report(bench, runs) else 1)


if __name__ == "__main__":
    main()
