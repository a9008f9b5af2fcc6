#!/usr/bin/env python3
"""Collect and compare benchmark runs. Standard library only.

  compare.py run --checkout DIR --out FILE [--checkout DIR2 --out FILE2]
                 [--runs N] [--seed S] [--seconds T] [--workload W ...]
      Run every workload (or the named ones) N times in each checkout,
      alternating which checkout goes first, and append one JSON line per
      run to that checkout's FILE. Each checkout builds into its own
      DIR/.bench_build.

  compare.py agree A B
      Two result files of the same commit agree when, on every workload,
      every end-to-end median of B is within the metric's bound of A's.

  compare.py claim PARENT CHANGE --metric M --workload W [--workload W2]
      A gain on M holds on a workload when CHANGE wins at least 9 of 10
      run pairs (ties count for neither side) and the medians differ by
      more than the parent's interquartile range. Every other pairing of
      end-to-end metric and workload must not be worse by more than its
      bound; it is "unresolved" when the parent's own spread exceeds the
      bound, unless every CHANGE run beats every PARENT run.

Bounds and directions come from the BENCHMARK.json beside this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """{workload: [result, ...]} in run order, failed runs skipped."""
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("result"):
                runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["run"])
    return {w: [r["result"] for r in records] for w, records in runs.items()}


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def spread(vals):
    """Interquartile range and its share of the median."""
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return q3 - q1, (q3 - q1) / med if med else float("inf")


def worse_by(metric, parent, change):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    rel = (change - parent) / parent
    return -rel if metric["better"] == "higher" else rel


def better(metric, a, b):
    return a > b if metric["better"] == "higher" else a < b


def cmd_run(args, bench):
    if len(args.checkout) != len(args.out):
        sys.exit("compare.py: give one --out per --checkout")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for i in range(args.runs):
        order = list(zip(args.checkout, args.out))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for checkout, out in order:
                env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
                    os.path.abspath(checkout), ".bench_build"))
                proc = subprocess.run(
                    [sys.executable, os.path.join("vqmc_bench", "run.py"),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=checkout, env=env, stdout=subprocess.PIPE)
                lines = proc.stdout.decode().strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                record = {"checkout": os.path.abspath(checkout),
                          "workload": workload, "run": i, "seed": args.seed,
                          "exit": proc.returncode, "result": result}
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                print("%s run %d %s: exit %d" % (checkout, i, workload,
                                                  proc.returncode))


def cmd_agree(args, bench):
    a, b = load_runs(args.a), load_runs(args.b)
    ok = True
    print("%-12s %-16s %12s %12s %8s %6s" % ("workload", "metric", "median A",
                                              "median B", "change", "bound"))
    for workload in sorted(set(a) & set(b)):
        for metric in bench["end_to_end"]:
            ma = statistics.median(values(a[workload], metric["name"]))
            mb = statistics.median(values(b[workload], metric["name"]))
            change = (mb - ma) / ma
            within = abs(change) <= metric["bound"]
            ok = ok and within
            print("%-12s %-16s %12.5g %12.5g %+7.1f%% %5.0f%% %s" % (
                workload, metric["name"], ma, mb, 100 * change,
                100 * metric["bound"], "" if within else "OUTSIDE"))
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def cmd_claim(args, bench):
    parent, change = load_runs(args.parent), load_runs(args.change)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.metric not in metrics:
        sys.exit("compare.py: %s is not an end-to-end metric" % args.metric)
    ok = True
    print("claim: %s better on %s" % (args.metric, ", ".join(args.workload)))
    for workload in args.workload:
        metric = metrics[args.metric]
        p = values(parent[workload], args.metric)
        c = values(change[workload], args.metric)
        pairs = list(zip(p, c))
        wins = sum(1 for pv, cv in pairs if better(metric, cv, pv))
        iqr, share = spread(p)
        mp, mc = statistics.median(p), statistics.median(c)
        gap_ok = abs(mc - mp) > iqr and better(metric, mc, mp)
        met = wins >= 0.9 * len(pairs) and gap_ok
        if share > metric["bound"] and not all(better(metric, cv, pv)
                                                for cv in c for pv in p):
            verdict = "unresolved"
        else:
            verdict = "met" if met else "NOT MET"
        ok = ok and verdict == "met"
        qp = statistics.quantiles(p, n=4)[::2]
        qc = statistics.quantiles(c, n=4)[::2]
        print("  %-12s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]  "
              "wins %d/%d  %s" % (workload, mp, *qp, mc, *qc, wins,
                                  len(pairs), verdict))
    print("no regression elsewhere:")
    for workload in sorted(set(parent) & set(change)):
        for metric in bench["end_to_end"]:
            if metric["name"] == args.metric and workload in args.workload:
                continue
            p = values(parent[workload], metric["name"])
            c = values(change[workload], metric["name"])
            worse = worse_by(metric, statistics.median(p), statistics.median(c))
            if spread(p)[1] > metric["bound"] and not all(
                    better(metric, cv, pv) for cv in c for pv in p):
                verdict = "unresolved"
            else:
                verdict = "ok" if worse <= metric["bound"] else "REGRESSION"
            ok = ok and verdict == "ok"
            print("  %-12s %-16s worse by %+6.1f%% (bound %.0f%%) %s" % (
                workload, metric["name"], 100 * worse, 100 * metric["bound"],
                verdict))
        failed_p = sum(r["failed"] for r in parent[workload])
        failed_c = sum(r["failed"] for r in change[workload])
        if failed_c > failed_p:
            ok = False
            print("  %-12s more failed operations: %d vs %d" % (
                workload, failed_c, failed_p))
    print("claim holds" if ok else "claim does not hold")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--checkout", action="append", required=True)
    run.add_argument("--out", action="append", required=True)
    run.add_argument("--runs", type=int, default=5)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float)
    run.add_argument("--workload", action="append")
    agree = sub.add_parser("agree")
    agree.add_argument("a")
    agree.add_argument("b")
    claim = sub.add_parser("claim")
    claim.add_argument("parent")
    claim.add_argument("change")
    claim.add_argument("--metric", required=True)
    claim.add_argument("--workload", action="append", required=True)
    args = parser.parse_args()
    bench = load_benchmark()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return cmd_run(args, bench)
    if args.command == "agree":
        return cmd_agree(args, bench)
    return cmd_claim(args, bench)


if __name__ == "__main__":
    sys.exit(main())
