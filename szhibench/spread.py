#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median) against
its bound in BENCHMARK.json.

Run from the repository root:

    python3 szhibench/spread.py --workload smooth_batch --seeds 1-10
    python3 szhibench/spread.py --seeds 1-5          # every workload

A metric passes when its spread is below a third of its bound (setup_s is
listed but, having the widest bound, is not held to that rule). Exits 1 if
a run fails, is incorrect, or a spread is too wide.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        results = [run(bench, w, s, 0) for s in seeds(args.seeds)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"{w}: {len(bad)} incorrect runs")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            steady = spread < m["bound"] / 3 or m["name"] == "setup_s"
            ok &= steady
            print(f"{w:13} {m['name']:18} median {med:14.4f} {m['unit']:6} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f} "
                  f"{'ok' if steady else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
