#ifndef EXTIDX_COMMON_FAILPOINT_H_
#define EXTIDX_COMMON_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace exi {

// Process-wide registry of named fail-points (docs/fault-tolerance.md).
//
// Production code threads a call through a site with
//
//   EXI_RETURN_IF_ERROR(FailPointRegistry::Global().Fire("odci/insert"));
//
// Fire() is a no-op returning OK unless the site has been armed, via SQL
//
//   SET FAILPOINT 'odci/insert' = 'once status=IoError';
//
// or directly with Set().  A spec is a space-separated token list:
//
//   trigger:  once | nth=N | every=N | times=N | prob=P [seed=S]
//             (default: fire on every hit)
//   action:   status=<StatusCodeName>  (default IoError)
//             sleep=<millis>           (inject latency, then apply status;
//                                       plain 'sleep=N' with no status token
//                                       sleeps and returns OK)
//   'off' (or the empty string) disarms the site.
//
// Every Fire() — armed or not — registers the site name and bumps its hit
// counter, so a test can run a workload once cleanly and then enumerate all
// reachable sites via SiteNames() (the fault-sweep test does exactly this).
class FailPointRegistry {
 public:
  static FailPointRegistry& Global();

  // Arms (or re-arms, resetting trigger state) the named site.  Returns
  // InvalidArgument on a malformed spec; 'off' behaves like Clear().
  Status Set(const std::string& name, const std::string& spec);
  void Clear(const std::string& name);
  // Disarms every site and zeroes all hit/fire counters; site names learned
  // from past Fire() calls are kept so sweeps can still enumerate them.
  void ClearAll();

  // Called from production code at the injection site.  Returns the injected
  // Status when the site is armed and its trigger matches, OK otherwise.
  Status Fire(const std::string& name);

  // Every site name ever passed to Fire(), sorted.
  std::vector<std::string> SiteNames() const;
  // Total Fire() calls for a site (0 if never seen).
  uint64_t Hits(const std::string& name) const;

 private:
  enum class Trigger { kAlways, kOnce, kNth, kEvery, kTimes, kProb };

  struct Armed {
    Trigger trigger = Trigger::kAlways;
    uint64_t n = 0;             // parameter of nth=/every=/times=
    double prob = 0.0;          // parameter of prob=
    uint64_t rng_state = 0;     // splitmix64 state for prob mode
    StatusCode code = StatusCode::kIoError;
    bool inject_status = true;  // false for pure 'sleep=' latency points
    uint64_t sleep_ms = 0;
    uint64_t hits = 0;   // Fire() calls since armed
    uint64_t fired = 0;  // injections since armed
  };

  struct Site {
    uint64_t hits = 0;  // lifetime Fire() calls
    bool armed = false;
    Armed spec;
  };

  static Status ParseSpec(const std::string& text, Armed* out);

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
};

}  // namespace exi

#endif  // EXTIDX_COMMON_FAILPOINT_H_
