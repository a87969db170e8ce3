// Types shared by the benchmark program and its workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Times one call and returns its wall seconds.
inline double timed(const std::function<void()>& fn) {
  const auto t = Clock::now();
  fn();
  return seconds_since(t);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs and short phases, for a quick end-to-end check
};

/// Operation accounting for one request class.
struct ClassCounts {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;       ///< ran but wrong, errored or unparseable
  std::uint64_t refused = 0;      ///< rejected before running
  std::uint64_t unanswered = 0;   ///< no reply before the run ended
  std::map<std::string, std::uint64_t> reasons;  ///< failed/refused by reason
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Workloads fill end_to_end always and
/// per_layer in traced runs; main() prints the set the run asks for.
struct Report {
  bool correct = true;
  std::map<std::string, ClassCounts> classes;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> errors;          ///< correctness mismatches, first few kept
  std::map<std::string, std::string> notes; ///< free-form run context (JSON values)

  void set(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a wrong output: \p ops operations count as failed and the run
  /// as incorrect.
  void mismatch(const std::string& cls, const std::string& what, std::uint64_t ops = 1) {
    correct = false;
    ClassCounts& c = classes[cls];
    c.failed += ops;
    c.reasons["mismatch"] += ops;
    if (errors.size() < 20) errors.push_back(cls + ": " + what);
  }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t not_ok() const;  ///< failed + refused + unanswered
};

/// Runs \p setup kSetupReps times and returns the median wall seconds. The
/// last repetition's state is what the workload then uses.
double median_setup_seconds(const std::function<void()>& setup);
inline constexpr int kSetupReps = 3;

/// Derives an independent 64-bit stream seed from the run seed and a tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Process peak resident set size, MiB.
double peak_rss_mib();

void run_codec(const Options& opt, Report& report, Trace& trace);
void run_bestfit(const Options& opt, Report& report, Trace& trace);
void run_svc(const Options& opt, Report& report, Trace& trace);

}  // namespace perfbench
