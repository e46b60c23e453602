#!/usr/bin/env python3
"""Steadiness evidence: run the same code in sets of seeded runs and compare.

Run from the root of a drishti checkout:

    python3 perfbench/steady.py                       # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --workloads cell-64c --runs 5 --sets 1

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` with a seed of its own and N the run_seconds of BENCHMARK.json.
For every (workload, end-to-end metric) it prints each set's median and its spread (the distance between the first
and third quartile as Python's statistics.quantiles gives them, as a share
of the median), and the change of the last set's median against the first,
in the metric's worse direction, next to the bound from BENCHMARK.json.
Raw results are kept in .bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + 1000 * s + i
                t0 = time.monotonic()
                r = run_once(w, seed, bench["run_seconds"])
                wall = time.monotonic() - t0
                if set(r["metrics"]) != set(metrics):
                    raise RuntimeError("%s seed %d: metrics %s, BENCHMARK.json lists %s"
                                       % (w, seed, sorted(r["metrics"]), sorted(metrics)))
                runs.append(r)
                print("%-12s set %d seed %5d: %3.0fs correct=%s attempted=%d failed=%d %s" % (
                    w, s + 1, seed, wall, r["correct"], r["attempted"], r["failed"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))), flush=True)
                ok = ok and r["correct"] and r["failed"] == 0
            sets.append(runs)
        raw[w] = sets
        print("\n%-12s %-12s %12s %8s %12s %8s %9s %6s  %s" % (
            "workload", "metric", "med(set1)", "iqr1", "med(last)", "iqrN", "worse", "bound", "verdict"))
        for name, m in metrics.items():
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds[-1] - meds[0]) / meds[0]
            worst = max(spreads)
            verdict = ["steady" if worst < m["bound"] / 3 else "within bound" if worst <= m["bound"] else "TOO NOISY"]
            if worse > m["bound"]:
                verdict.append("DRIFT")
            if "TOO NOISY" in verdict or "DRIFT" in verdict:
                ok = False
            print("%-12s %-12s %12.4g %7.1f%% %12.4g %7.1f%% %8.1f%% %5.0f%%  %s" % (
                w, name, meds[0], 100 * spreads[0], meds[-1], 100 * spreads[-1], 100 * worse,
                100 * m["bound"], " ".join(verdict) or "-"), flush=True)
        print()
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f)
    print("verdict:", "steady, all runs correct" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
