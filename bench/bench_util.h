#ifndef EXTIDX_BENCH_BENCH_UTIL_H_
#define EXTIDX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"

namespace exi::bench {

// EXTIDX_BENCH_SMOKE=1 shrinks every bench to a seconds-long smoke run so
// CI can execute the whole suite end to end: Scaled() collapses workload
// sizes to a tiny floor and Repetitions() to 1, while the measurement and
// JSON-report plumbing stay identical.  Smoke numbers are for plumbing
// validation only — never quote them as results.
inline bool SmokeMode() {
  const char* v = std::getenv("EXTIDX_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Workload size: `full` normally, min(full, smoke) under smoke mode.
inline size_t Scaled(size_t full, size_t smoke = 8) {
  return SmokeMode() ? std::min(full, smoke) : full;
}

// Runs behind every timed number: 5, or 1 under smoke mode.
inline size_t Repetitions() { return SmokeMode() ? 1 : 5; }

// Median, min, max and count of repeated measurements.  The median of an
// even count is the mean of the two middle samples; no samples give zeros.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
  size_t n = 0;
};

inline Spread SpreadOf(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {(samples[(n - 1) / 2] + samples[n / 2]) / 2, samples.front(),
          samples.back(), n};
}

// One configuration's repeated runs.  Each Start()..Stop() span adds one
// wall-time sample and keeps that span's metrics window, so a timed row
// carries the work of one run next to the spread of its times.
class Series {
 public:
  void Start() {
    before_ = GlobalMetrics().Snapshot();
    start_ = std::chrono::steady_clock::now();
  }
  void Stop() {
    ms_.push_back(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    work_ = GlobalMetrics().Snapshot().Delta(before_);
  }
  Spread ms() const { return SpreadOf(ms_); }
  // The metrics window of the last run.
  const StorageMetrics& work() const { return work_; }

 private:
  StorageMetrics before_;
  std::chrono::steady_clock::time_point start_;
  std::vector<double> ms_;
  StorageMetrics work_;
};

// Runs each of `runs` once untimed, so caches fill and lazy set-up
// finishes, then times each once per repetition, in turn, so drift on a
// shared host hits every configuration alike.
inline std::vector<Series> TimeAlternating(
    const std::vector<std::function<void()>>& runs) {
  for (const auto& run : runs) run();
  std::vector<Series> out(runs.size());
  for (size_t rep = 0; rep < Repetitions(); ++rep) {
    for (size_t i = 0; i < runs.size(); ++i) {
      out[i].Start();
      runs[i]();
      out[i].Stop();
    }
  }
  return out;
}

// Table rows, logical reads and ODCI calls as perfbench counts them.
inline uint64_t LogicalReads(const StorageMetrics& m) {
  return m.table_rows_read + m.index_nodes_read;
}
inline uint64_t OdciCalls(const StorageMetrics& m) {
  return m.odci_start_calls + m.odci_fetch_calls + m.odci_close_calls +
         m.odci_maintenance_calls;
}

// One value of a table row or report field, formatted once for both
// stdout and JSON: text, an integer, or a double with three decimals.
class Cell {
 public:
  Cell(std::string text) : text_(std::move(text)), quoted_(true) {}  // NOLINT
  Cell(const char* text) : Cell(std::string(text)) {}                // NOLINT
  template <typename T>
    requires std::is_integral_v<T>
  Cell(T v) : text_(std::to_string(v)) {}  // NOLINT
  Cell(double v) {                         // NOLINT
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    text_ = std::isfinite(v) ? buf : "null";
  }

  const std::string& text() const { return text_; }
  bool quoted() const { return quoted_; }
  std::string Json() const {
    if (!quoted_) return text_;
    std::string out = "\"";
    for (char c : text_) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::string text_;
  bool quoted_ = false;
};

// The columns a timed row ends with, from one Series.
inline const std::vector<std::string>& TimedColumns() {
  static const std::vector<std::string> kColumns = {
      "ms", "ms_min", "ms_max", "n", "logical_reads", "odci_calls"};
  return kColumns;
}

// The rows of one bench table: Text() aligns them under a header for
// stdout, and Json() writes the same cells as an array of objects keyed by
// column name.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void Add(std::vector<Cell> cells) {
    if (cells.size() != columns_.size()) {
      std::fprintf(stderr, "table row has %zu cells for %zu columns\n",
                   cells.size(), columns_.size());
      std::abort();
    }
    rows_.push_back(std::move(cells));
  }

  // A timed row: `cells`, then the TimedColumns() of `series`.
  void Add(std::vector<Cell> cells, const Series& series) {
    const Spread ms = series.ms();
    cells.insert(cells.end(),
                 {ms.median, ms.min, ms.max, ms.n,
                  LogicalReads(series.work()), OdciCalls(series.work())});
    Add(std::move(cells));
  }

  std::string Json() const {
    if (rows_.empty()) return "[]";
    std::string out = "[";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += r == 0 ? "\n    {" : ",\n    {";
      for (size_t c = 0; c < columns_.size(); ++c) {
        out += (c == 0 ? "" : ", ") + Cell(columns_[c]).Json() + ": " +
               rows_[r][c].Json();
      }
      out += "}";
    }
    return out + "\n  ]";
  }

  // The header and rows in columns two spaces apart, each aligned like
  // its first row: text left, numbers right.
  std::string Text() const {
    std::vector<size_t> width(columns_.size());
    std::vector<bool> left(columns_.size(), true);
    for (size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
      for (const auto& row : rows_) {
        width[c] = std::max(width[c], row[c].text().size());
      }
      if (!rows_.empty()) left[c] = rows_[0][c].quoted();
    }
    auto line = [&](auto text_of) {
      std::string out;
      for (size_t c = 0; c < columns_.size(); ++c) {
        const std::string& text = text_of(c);
        const std::string pad(width[c] - text.size(), ' ');
        out += (c == 0 ? "" : "  ") + (left[c] ? text + pad : pad + text);
      }
      return out.erase(out.find_last_not_of(' ') + 1) + "\n";
    };
    std::string out =
        line([&](size_t c) -> const std::string& { return columns_[c]; });
    for (const auto& row : rows_) {
      out += line([&](size_t c) -> const std::string& {
        return row[c].text();
      });
    }
    return out;
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

// Everything one bench reports: printed to stdout and written to
// BENCH_<name>.json, which ends with an "odci_calls" table of the global
// Tracer so every experiment's operation counts are machine-readable
// (docs/observability.md describes the layout).
class JsonReport {
 public:
  // `title` heads what Write() prints.
  JsonReport(std::string name, std::string title)
      : name_(std::move(name)), title_(std::move(title)) {}

  // A top-level field.
  void Add(const std::string& key, Cell value) {
    fields_.emplace_back(key, std::move(value));
  }

  Table& AddTable(const std::string& key, std::vector<std::string> columns) {
    tables_.emplace_back(key, Table(std::move(columns)));
    return tables_.back().second;
  }
  // A table whose rows end with the TimedColumns().
  Table& AddTimedTable(const std::string& key,
                       std::vector<std::string> columns) {
    columns.insert(columns.end(), TimedColumns().begin(),
                   TimedColumns().end());
    return AddTable(key, std::move(columns));
  }

  // Prints the title, the fields as "key: value" and each table under its
  // key, then writes the same to BENCH_<name>.json.  Returns false (after
  // reporting) if the file cannot be written.
  bool Write() {
    Table& odci = AddTable("odci_calls", {"indextype", "cartridge", "routine",
                                          "calls", "errors", "total_us",
                                          "avg_us"});
    for (const auto& [key, stats] : Tracer::Global().Snapshot()) {
      odci.Add({key.first, stats.cartridge, key.second, stats.calls,
                stats.errors, stats.total_us, stats.avg_us()});
    }
    std::printf("==== %s ====\n", title_.c_str());
    std::string json = "{";
    for (const auto& [key, value] : fields_) {
      std::printf("%s: %s\n", key.c_str(), value.text().c_str());
      json += "\n  " + Cell(key).Json() + ": " + value.Json() + ",";
    }
    for (const auto& [key, table] : tables_) {
      std::printf("\n%s:\n%s", key.c_str(), table.Text().c_str());
      json += "\n  " + Cell(key).Json() + ": " + table.Json() + ",";
    }
    json.back() = '\n';
    json += "}\n";
    const std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs(json.c_str(), f) < 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      if (f != nullptr) std::fclose(f);
      return false;
    }
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string title_;
  std::vector<std::pair<std::string, Cell>> fields_;
  std::deque<std::pair<std::string, Table>> tables_;
};

}  // namespace exi::bench

#endif  // EXTIDX_BENCH_BENCH_UTIL_H_
