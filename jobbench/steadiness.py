#!/usr/bin/env python3
"""Checks that two sets of benchmark runs of the same code agree.

Usage, from the root of a checkout:

    python3 jobbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Runs `jobbench/run.py` --runs times per workload and set, alternating between
set A (seeds 1..runs) and set B (seeds 101..100+runs) so that drift in the
machine's load falls on both sets alike. For every end-to-end metric of
BENCHMARK.json and every workload it prints both sets' medians, each set's
quartile spread (Q3 - Q1 over the median, from statistics.quantiles(n=4)),
and a verdict against the metric's bound:

  agree     each spread is within the bound (setup_s excepted) and set B's
            median is not worse than set A's by more than the bound
  disagree  otherwise

It also requires the share of failed jobs to be identical in both sets, and
every run to print a result; a run that exits without one is reported and
skipped. Raw results are written to --out as JSON. Exits 0 only if everything
agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode), flush=True)
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", default=os.path.join(".bench_build", "steadiness.json"))
    args = p.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    crashed = 0
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for s in order:
            seed = (1 if s == "A" else 101) + i
            for w in workloads:
                r = run_once(w, seed, args.seconds)
                if r is None:
                    crashed += 1
                    continue
                results[w][s].append(r)
                print("run %-13s set %s seed %3d: %s" % (w, s, seed, " ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)

    ok = crashed == 0
    if crashed:
        print("\n%d run(s) exited without a result" % crashed)
    print("\n%-13s %-24s %11s %11s %8s %8s %6s  %s" % (
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict"))
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            agree = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            ok = ok and agree
            print("%-13s %-24s %11.5g %11.5g %8.3f %8.3f %6.2f  %s" % (
                w, name, ma, mb, sa, sb, bound, "agree" if agree else "disagree"))
        shares = []
        for s in ("A", "B"):
            attempted = sum(r["attempted"] for r in results[w][s])
            failed = sum(r["failed"] for r in results[w][s])
            correct = all(r["correct"] for r in results[w][s])
            shares.append(failed / attempted)
            print("%-13s set %s: attempted=%d failed=%d correct=%s" % (
                w, s, attempted, failed, correct))
            ok = ok and correct
        ok = ok and shares[0] == shares[1]
    print("\nsteadiness: %s" % ("all agree" if ok else "DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
