#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b]

Run from the repository root.  Each workload runs untraced once per seed
(through perfbench/run.py, with BENCHMARK.json's run_seconds).  For every
end-to-end metric the spread is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median; a metric is steady when that spread is below a third of its bound.
The table and the raw values are printed as markdown.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    elapsed = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.time()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            elapsed[w].append(time.time() - start)
            if done.returncode != 0:
                sys.exit("run failed: " + " ".join(cmd))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("incorrect result: %s seed %d" % (w, seed))
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print("%s seed %d (%.1f s): %s" % (w, seed, elapsed[w][-1], json.dumps(
                {k: round(v["value"], 4) for k, v in
                 result["metrics"].items()})), flush=True)

    lines = ["| workload | metric | median | spread | bound | steady |",
             "|---|---|---|---|---|---|"]
    raw = []
    for w in workloads:
        for m in metrics:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = ("yes" if spread < m["bound"] / 3 else
                      "within bound" if spread <= m["bound"] else "NO")
            lines.append("| %s | %s | %.4g %s | %.3f | %.2f | %s |" % (
                w, m["name"], med, m["unit"], spread, m["bound"], steady))
            raw.append("- %s %s: %s" % (
                w, m["name"], ", ".join("%.6g" % x for x in v)))
    runs = ["- %s: %.1f s per run (median)" %
            (w, statistics.median(elapsed[w])) for w in workloads]
    report = "\n".join(lines + ["", "Wall time of one run, build included:",
                                 ""] + runs + [
        "", "Raw values, seeds %s in order:" % args.seeds, ""] + raw) + "\n"
    print(report)


if __name__ == "__main__":
    main()
