#include "common/failpoint.h"

#include <cctype>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace exi {

namespace {

// splitmix64: tiny deterministic generator for prob= triggers, so a seeded
// probabilistic fail-point fires the same hits in every run.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NextUniform(uint64_t* state) {
  return double(NextRand(state) >> 11) * (1.0 / 9007199254740992.0);
}

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = char(std::tolower((unsigned char)c));
  return out;
}

bool ParseStatusCode(const std::string& name, StatusCode* out) {
  static const StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,     StatusCode::kNotFound,
      StatusCode::kAlreadyExists,       StatusCode::kNotSupported,
      StatusCode::kParseError,          StatusCode::kBindError,
      StatusCode::kTypeMismatch,        StatusCode::kConstraintViolation,
      StatusCode::kTransactionAborted,  StatusCode::kCallbackViolation,
      StatusCode::kIoError,             StatusCode::kBusy,
      StatusCode::kInternal,
  };
  const std::string want = Lower(name);
  for (StatusCode c : kCodes) {
    if (Lower(StatusCodeName(c)) == want) {
      *out = c;
      return true;
    }
  }
  return false;
}

}  // namespace

FailPointRegistry& FailPointRegistry::Global() {
  static FailPointRegistry* registry = new FailPointRegistry();
  return *registry;
}

Status FailPointRegistry::ParseSpec(const std::string& text, Armed* out) {
  Armed armed;
  bool saw_status = false;
  bool saw_sleep = false;
  uint64_t seed = 0x5eedf01d;  // default seed: deterministic prob= points
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::string tok = Lower(token);
    std::string key = tok;
    std::string value;
    size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      key = tok.substr(0, eq);
      value = tok.substr(eq + 1);
      // status= names are matched case-insensitively, but report the
      // original spelling in errors.
      if (key == "status") value = token.substr(eq + 1);
    }
    auto need_uint = [&](uint64_t* slot) -> Status {
      try {
        size_t pos = 0;
        unsigned long long v = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        *slot = v;
      } catch (...) {
        return Status::InvalidArgument("failpoint spec: bad number in '" +
                                       token + "'");
      }
      return Status::OK();
    };
    if (tok == "once") {
      armed.trigger = Trigger::kOnce;
    } else if (tok == "always") {
      armed.trigger = Trigger::kAlways;
    } else if (key == "nth") {
      armed.trigger = Trigger::kNth;
      EXI_RETURN_IF_ERROR(need_uint(&armed.n));
    } else if (key == "every") {
      armed.trigger = Trigger::kEvery;
      EXI_RETURN_IF_ERROR(need_uint(&armed.n));
      if (armed.n == 0) {
        return Status::InvalidArgument("failpoint spec: every=0");
      }
    } else if (key == "times") {
      armed.trigger = Trigger::kTimes;
      EXI_RETURN_IF_ERROR(need_uint(&armed.n));
    } else if (key == "prob") {
      armed.trigger = Trigger::kProb;
      try {
        size_t pos = 0;
        armed.prob = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } catch (...) {
        return Status::InvalidArgument("failpoint spec: bad probability in '" +
                                       token + "'");
      }
      if (armed.prob < 0.0 || armed.prob > 1.0) {
        return Status::InvalidArgument(
            "failpoint spec: prob= must be in [0,1]");
      }
    } else if (key == "seed") {
      EXI_RETURN_IF_ERROR(need_uint(&seed));
    } else if (key == "status") {
      if (!ParseStatusCode(value, &armed.code)) {
        return Status::InvalidArgument("failpoint spec: unknown status '" +
                                       value + "'");
      }
      saw_status = true;
    } else if (key == "sleep") {
      EXI_RETURN_IF_ERROR(need_uint(&armed.sleep_ms));
      saw_sleep = true;
    } else {
      return Status::InvalidArgument("failpoint spec: unknown token '" +
                                     token + "'");
    }
  }
  // 'sleep=N' alone is a pure latency point; any status= token (or no sleep
  // at all) makes the point return an error status when it fires.
  armed.inject_status = saw_status || !saw_sleep;
  armed.rng_state = seed;
  *out = armed;
  return Status::OK();
}

Status FailPointRegistry::Set(const std::string& name,
                              const std::string& spec) {
  if (spec.empty() || Lower(spec) == "off") {
    Clear(name);
    return Status::OK();
  }
  Armed armed;
  EXI_RETURN_IF_ERROR(ParseSpec(spec, &armed));
  std::lock_guard<std::mutex> lock(mu_);
  Site& site = sites_[name];
  site.armed = true;
  site.spec = armed;
  return Status::OK();
}

void FailPointRegistry::Clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(name);
  if (it != sites_.end()) it->second.armed = false;
}

void FailPointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, site] : sites_) {
    site.armed = false;
    site.hits = 0;
  }
}

Status FailPointRegistry::Fire(const std::string& name) {
  uint64_t sleep_ms = 0;
  Status injected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Site& site = sites_[name];  // self-registers the site on first hit
    site.hits++;
    if (!site.armed) return Status::OK();
    Armed& a = site.spec;
    a.hits++;
    bool fire = false;
    switch (a.trigger) {
      case Trigger::kAlways:
        fire = true;
        break;
      case Trigger::kOnce:
        fire = (a.fired == 0);
        break;
      case Trigger::kNth:
        fire = (a.hits == a.n);
        break;
      case Trigger::kEvery:
        fire = (a.hits % a.n == 0);
        break;
      case Trigger::kTimes:
        fire = (a.fired < a.n);
        break;
      case Trigger::kProb:
        fire = (NextUniform(&a.rng_state) < a.prob);
        break;
    }
    if (!fire) return Status::OK();
    a.fired++;
    sleep_ms = a.sleep_ms;
    if (a.inject_status) {
      injected = Status(a.code, "failpoint '" + name + "' fired");
    }
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return injected;
}

std::vector<std::string> FailPointRegistry::SiteNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

uint64_t FailPointRegistry::Hits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.hits;
}

}  // namespace exi
