#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload of the program (the ones
BENCHMARK.json gates, and text_search) for one second at self-test scale,
untraced and traced, and asserts that the last line carries exactly the
metrics BENCHMARK.json names, each with its unit,
that the report prints the workload's own end-to-end metrics, and that
error_rate is 0.  Finally it checks that the benchmark refuses to run in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

# Every workload of the program, with the end-to-end metrics it reports
# besides the ones all workloads share.
WORKLOAD_METRICS = {
    "text_search": ["query_p50_ms"],
    "text_ingest": ["dml_p50_ms", "commit_p50_ms", "rollback_p50_ms"],
    "rolling_window": ["dml_p50_ms", "partition_ddl_p50_ms"],
}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    check(done.returncode == 0, "%s trace=%d exits 0" % (workload, trace))
    return done.stdout.strip().splitlines()


def report_value(lines, name):
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return float(parts[1])
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in WORKLOAD_METRICS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines = run(name, trace)
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s trace=%d result keys" % (name, trace))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s trace=%d correct, nothing failed" % (name, trace))
            got = result["metrics"]
            check(sorted(got) == sorted(m["name"] for m in wanted),
                  "%s trace=%d prints exactly the named metrics" %
                  (name, trace))
            for m in wanted:
                check(got.get(m["name"], {}).get("unit") == m["unit"],
                      "%s trace=%d %s in %s" % (name, trace, m["name"],
                                                m["unit"]))
            if trace == 0:
                check(report_value(lines, "error_rate") == 0.0,
                      "%s error_rate is 0" % name)
                for metric in WORKLOAD_METRICS[name]:
                    check(report_value(lines, metric) is not None,
                          "%s reports %s" % (name, metric))

    # Without the engine sources the benchmark must fail without a result.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, target, "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    done = subprocess.run([sys.executable, RUN, "--workload", "text_search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and "metrics" not in done.stdout,
          "bare checkout exits non-zero without a result")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
