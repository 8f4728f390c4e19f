#ifndef EXTIDX_BENCH_BENCH_UTIL_H_
#define EXTIDX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"

namespace exi::bench {

// EXTIDX_BENCH_SMOKE=1 shrinks every bench to a seconds-long smoke run so
// CI can execute the whole suite end to end: Scaled() collapses workload
// sizes to a tiny floor while the measurement and JSON-report plumbing stay
// identical.  Smoke numbers are for plumbing validation only — never quote
// them as results.
inline bool SmokeMode() {
  const char* v = std::getenv("EXTIDX_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Workload size: `full` normally, min(full, smoke) under smoke mode.
inline size_t Scaled(size_t full, size_t smoke = 8) {
  return SmokeMode() ? std::min(full, smoke) : full;
}

// Wall-clock stopwatch in microseconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedMs() const { return double(ElapsedUs()) / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Median, min and max of one configuration's repeated measurements.
template <typename T>
struct Spread {
  T median;
  T min;
  T max;
};

template <typename T>
Spread<T> SpreadOf(std::vector<T> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

// Captures a metrics window.
class MetricsWindow {
 public:
  MetricsWindow() : before_(GlobalMetrics().Snapshot()) {}
  StorageMetrics Delta() const {
    return GlobalMetrics().Snapshot().Delta(before_);
  }

 private:
  StorageMetrics before_;
};

inline void Header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Minimal JSON string escaping; bench labels and notes are ASCII.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Emits the global Tracer's per-routine counters as a JSON array, one
// object per traced (indextype, routine) — the bench-side view of
// V$ODCI_CALLS.  `indent` prefixes each array element line.
inline void WriteOdciJsonArray(FILE* f, const char* indent) {
  TracerSnapshot traced = Tracer::Global().Snapshot();
  std::fprintf(f, "[");
  bool first = true;
  for (const auto& [key, stats] : traced) {
    std::fprintf(f, "%s\n%s{\"indextype\": \"%s\", \"cartridge\": \"%s\", "
                 "\"routine\": \"%s\", \"calls\": %llu, \"errors\": %llu, "
                 "\"total_us\": %lld, \"avg_us\": %.1f}",
                 first ? "" : ",", indent, JsonEscape(key.first).c_str(),
                 JsonEscape(stats.cartridge).c_str(),
                 JsonEscape(key.second).c_str(),
                 (unsigned long long)stats.calls,
                 (unsigned long long)stats.errors,
                 (long long)stats.total_us, stats.avg_us());
    first = false;
  }
  std::fprintf(f, "%s%s]", first ? "" : "\n", first ? "" : indent);
}

// Accumulates named scalars and writes BENCH_<name>.json, always appending
// an "odci_calls" array from the global Tracer so every experiment's
// operation counts are machine-readable (docs/observability.md maps the
// fields to the paper's claims).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, int64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void Add(const std::string& key, uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void Add(const std::string& key, int v) { Add(key, int64_t(v)); }
  void Add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    fields_.emplace_back(key, buf);
  }
  void Add(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + JsonEscape(v) + "\"");
  }
  void Add(const std::string& key, const char* v) {
    Add(key, std::string(v));
  }
  // Appends a raw JSON value (e.g. a hand-built array).
  void AddRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  // Writes BENCH_<name>.json in insertion order, then the tracer array.
  // Returns false (after reporting) if the file cannot be written.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (const auto& [key, value] : fields_) {
      std::fprintf(f, "  \"%s\": %s,\n", JsonEscape(key).c_str(),
                   value.c_str());
    }
    std::fprintf(f, "  \"odci_calls\": ");
    WriteOdciJsonArray(f, "    ");
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace exi::bench

#endif  // EXTIDX_BENCH_BENCH_UTIL_H_
