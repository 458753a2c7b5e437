#!/usr/bin/env python3
"""Steadiness report: runs one workload N times on seeds 1..N for
BENCHMARK.json's run_seconds, and prints the median and quartiles of every
end-to-end metric with its spread (interquartile distance as a share of the
median) against the metric's bound in BENCHMARK.json.  With --sets 2 it
repeats the N runs on the same seeds and checks that the second median is
not worse than the first by more than the bound.

    python3 perfbench/steady.py --workload cell_long --runs 10 --sets 2

Exit code 0 when every run's outputs pass their check, every spread is
within its bound and, with two sets, every median agrees; 1 otherwise."""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run printed no result: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def run_set(args, label):
    """Metric values of N runs, and the seeds whose outputs failed."""
    values, failed = {}, []
    for seed in range(1, args.runs + 1):
        correct, got = run_once(args.workload, seed, args.seconds)
        if not correct:
            failed.append(seed)
        for k, v in got.items():
            values.setdefault(k, []).append(v)
        print("%s run %d/%d%s: %s" % (
            label, seed, args.runs, "" if correct else " (OUTPUTS FAILED)",
            " ".join("%s=%.6g" % kv for kv in got.items())), flush=True)
    return values, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args.seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    runs = [run_set(args, "set %d" % (s + 1)) for s in range(args.sets)]
    sets = [values for values, _ in runs]
    failed = sorted(set(seed for _, seeds in runs for seed in seeds))
    ok = not failed
    print("\n%s: %d runs per set, %ds each" % (args.workload, args.runs, args.seconds))
    print("%-24s %12s %12s %12s %8s %7s %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, spec in specs.items():
        for s, values in enumerate(sets):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            sp = M.spread(values[name])
            if sp <= spec["bound"] / 3:
                verdict = "steady"
            elif sp <= spec["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("%-24s %12.6g %12.6g %12.6g %8.4f %7.3f %s" % (
                name if s == 0 else "  (set 2)", q1, med, q3, sp, spec["bound"], verdict))
        if len(sets) == 2:
            a = statistics.median(sets[0][name])
            b = statistics.median(sets[1][name])
            worse = M.worse_by(a, b, spec["better"])
            agree = worse <= spec["bound"]
            ok = ok and agree
            print("%-24s second median worse by %.4f (bound %.3f): %s" % (
                "", worse, spec["bound"], "agree" if agree else "DISAGREE"))
    if failed:
        print("outputs failed their check on seeds %s" % failed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
