#!/usr/bin/env bash
# CI entry point: build, unit/integration tests, documentation lint, bench
# and fault smoke runs, the perfbench self-test, a TSan pass over the
# concurrency suite, and an ASan+UBSan pass over every test.  Runs anywhere
# with the repo's toolchain (cmake + C++20 compiler + gtest/benchmark); no
# network access.
#
#   ci/run.sh          full pipeline
#   ci/run.sh quick    skip the sanitizer stages (separate build trees, slow)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

# Every tree is built with -Werror: a compiler warning fails CI.
WERROR=-DCMAKE_CXX_FLAGS=-Werror

echo "==> configure + build"
cmake -B build -S . "$WERROR" >/dev/null
cmake --build build -j "$JOBS"

# Reported, not gated: the engine's size, read off every run.
echo "==> source size: $(find src \( -name '*.h' -o -name '*.cc' \) -print0 |
  xargs -0 cat | wc -l) lines in src/**/*.{h,cc}"

echo "==> tests"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "==> docs-check (markdown links + V\$ schema golden + fail-point inventory + bench routine names + source paths + bench result names)"
cmake --build build --target docs-check

echo "==> bench_diff (the committed BENCH_*.json against themselves: no flags)"
python3 tools/bench_diff.py . .

echo "==> bench smoke (EXTIDX_BENCH_SMOKE=1: every bench at tiny scale)"
# Runs from build/ so the committed BENCH_*.json at the repo root keep
# their full-scale numbers; smoke output is plumbing validation only.  Every
# bench but bench_micro_substrate must write the BENCH_<name>.json its last
# line names, and every BENCH_*.json must parse as JSON and hold at least
# one non-empty array of row objects besides odci_calls (format only, not
# timings).
(
  cd build
  rm -f BENCH_*.json
  for b in bench/bench_*; do
    [[ -x "$b" && ! -d "$b" ]] || continue
    if [[ "$(basename "$b")" == "bench_micro_substrate" ]]; then
      EXTIDX_BENCH_SMOKE=1 "./$b" --benchmark_min_time=0.01 >/dev/null
    else
      wrote="$(EXTIDX_BENCH_SMOKE=1 "./$b" | sed -n 's/^wrote //p')"
      if [[ "$wrote" != BENCH_*.json || ! -f "$wrote" ]]; then
        echo "$(basename "$b") wrote no BENCH_<name>.json"
        exit 1
      fi
    fi
    echo "  ok: $(basename "$b")"
  done
  for j in BENCH_*.json; do
    python3 -m json.tool "$j" >/dev/null
    echo "  json ok: $j"
  done
  python3 -c '
import glob, json, sys
for path in sorted(glob.glob("BENCH_*.json")):
    tables = [key for key, value in json.load(open(path)).items()
              if key != "odci_calls" and isinstance(value, list) and value
              and all(isinstance(row, dict) and row for row in value)]
    if not tables:
        sys.exit("%s holds no non-empty array of row objects besides "
                 "odci_calls" % path)
    print("  rows ok: %s (%s)" % (path, ", ".join(tables)))
'
  # Sorted posting runs: a batched text INSERT reads no more B+-tree nodes
  # than the same rows inserted one statement at a time.  Node reads are
  # counts, not times, so this holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_storage_fastpath.json"))
batched = r["index_nodes_read_batched"]
per_row = r["index_nodes_read_per_row"]
print("  index nodes read: batched %d, per-row %d" % (batched, per_row))
if batched > per_row:
    sys.exit("batched INSERT read more B+-tree nodes than per-row")
'
  # The same for a built-in B-tree: a statement writes each index as one
  # sorted merge run.  Counts again, so this holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_storage_fastpath.json"))
batched = r["btree_nodes_read_batched"]
per_row = r["btree_nodes_read_per_row"]
print("  built-in B-tree nodes read: batched %d, per-row %d"
      % (batched, per_row))
if batched > per_row:
    sys.exit("batched INSERT read more built-in B-tree nodes than per-row")
'
  # Join probe window: the tile join returns the same non-zero row count
  # at every worker count.  A count, not a time, so it holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_parallel.json"))
rows = {j["workers"]: j["rows"] for j in r["join"]}
print("  join rows by workers: %s" % rows)
if len(set(rows.values())) != 1 or 0 in rows.values():
    sys.exit("join row count differs across worker counts or is zero")
'
  # Block-compressed postings: the text index keeps under 40 heap bytes
  # per posting.  Read at the largest smoke text build (2,000 documents,
  # about 21 B per posting), where a 1,024-rid block holds many postings;
  # at 60 documents a term has about two.  Heap bytes, not times, so it
  # holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_text_build.json"))
text = max((b for b in r["builds"] if b["cartridge"] == "text"),
           key=lambda b: b["rows"])
print("  text heap bytes per posting at %d docs: %.1f"
      % (text["rows"], text["heap_bytes_per_posting"]))
if text["heap_bytes_per_posting"] >= 40:
    sys.exit("text index keeps >= 40 heap bytes per posting")
'
  # Build reads: every CREATE INDEX, the built-in B-tree backfill included,
  # reads each base row once.  A count, so it holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_text_build.json"))
for b in r["builds"]:
    print("  %s build: %d rows, %d logical reads"
          % (b["cartridge"], b["rows"], b["logical_reads"]))
    if b["logical_reads"] != b["rows"]:
        sys.exit("%s build read %d rows of %d"
                 % (b["cartridge"], b["logical_reads"], b["rows"]))
'
  # Index and function agree: every build's query returns as many rows
  # through the index as the operator's function (TextContains for text)
  # returned on every row before the index existed.  Counts, so this holds
  # on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_text_build.json"))
for b in r["builds"]:
    print("  %s %d: %d rows through the index, %d functional"
          % (b["cartridge"], b["rows"], b["query_rows"], b["functional_rows"]))
    if b["query_rows"] != b["functional_rows"]:
        sys.exit("%s build at %d rows: the index returned %d rows, the "
                 "function %d" % (b["cartridge"], b["rows"], b["query_rows"],
                                  b["functional_rows"]))
'
  # End-of-scan marker: every E7 scan makes exactly ceil(rows / batch)
  # ODCIIndexFetch calls, no empty one after the last batch, and returns
  # the same rows at every batch size.  Counts, so this holds on any host.
  python3 -c '
import json, sys
r = json.load(open("BENCH_batch_fetch.json"))
for b in r["batches"]:
    want = max(1, -(-b["rows"] // b["batch"]))
    print("  batch %d: %d rows in %d fetches" % (b["batch"], b["rows"],
                                                  b["fetch_calls"]))
    if b["fetch_calls"] != want:
        sys.exit("batch %d made %d fetches, not ceil(rows / batch) = %d"
                 % (b["batch"], b["fetch_calls"], want))
if len({b["rows"] for b in r["batches"]}) != 1:
    sys.exit("E7 returned different rows at different batch sizes")
'
)

echo "==> fault smoke (EXTIDX_BENCH_SMOKE=1: fail-point sweep at tiny scale)"
(cd build && EXTIDX_BENCH_SMOKE=1 ./tests/fault_sweep_test)

echo "==> perfbench self-test (builds perfbench against src/, tiny scale)"
python3 perfbench/selftest.py

if [[ "${1:-}" != "quick" ]]; then
  # The suites run under TSan.
  tsan_suites=(concurrency_test observability_test storage_fastpath_test
               partition_test fault_sweep_test precomputed_cursor_test
               operator_forms_test join_order_test)
  echo "==> TSan: ${tsan_suites[*]}"
  cmake -B build-tsan -S . -DEXTIDX_SANITIZE=thread "$WERROR" >/dev/null
  cmake --build build-tsan -j "$JOBS" --target "${tsan_suites[@]}"
  for t in "${tsan_suites[@]}"; do
    "./build-tsan/tests/$t"
  done

  echo "==> ASan+UBSan: full ctest"
  cmake -B build-asan -S . -DEXTIDX_SANITIZE=address,undefined "$WERROR" \
    >/dev/null
  cmake --build build-asan -j "$JOBS"
  (cd build-asan &&
    UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j "$JOBS")
fi

echo "CI OK"
