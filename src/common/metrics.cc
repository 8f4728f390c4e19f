#include "common/metrics.h"

#include <sstream>

namespace exi {

namespace {

std::string Render(const StorageMetrics& m, bool skip_zero) {
  std::ostringstream os;
  bool first = true;
  ForEachMetric(m, [&](const char* name, uint64_t value) {
    if (skip_zero && value == 0) return;
    if (!first) os << ' ';
    first = false;
    os << name << '=' << value;
  });
  return os.str();
}

}  // namespace

StorageMetrics StorageMetrics::Delta(const StorageMetrics& since) const {
  StorageMetrics d;
#define EXI_METRIC_DELTA(name) d.name = name - since.name;
  EXI_STORAGE_METRICS(EXI_METRIC_DELTA)
#undef EXI_METRIC_DELTA
  return d;
}

std::string StorageMetrics::ToString() const { return Render(*this, false); }

std::string StorageMetrics::ToCompactString() const {
  return Render(*this, true);
}

StorageMetrics AtomicStorageMetrics::Snapshot() const {
  StorageMetrics s;
#define EXI_METRIC_LOAD(name) s.name = name.load(std::memory_order_relaxed);
  EXI_STORAGE_METRICS(EXI_METRIC_LOAD)
#undef EXI_METRIC_LOAD
  return s;
}

void AtomicStorageMetrics::Reset() {
#define EXI_METRIC_RESET(name) name = 0;
  EXI_STORAGE_METRICS(EXI_METRIC_RESET)
#undef EXI_METRIC_RESET
}

AtomicStorageMetrics& GlobalMetrics() {
  static AtomicStorageMetrics* metrics = new AtomicStorageMetrics();
  return *metrics;
}

}  // namespace exi
