// Sample statistics and rate-ladder rules shared by the workloads and the
// self-tests. Header-only so the self-test binary needs no library code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN
/// when the sample is empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Number of samples strictly above the q-quantile.
inline std::size_t count_beyond(const std::vector<double>& v, double q) {
  const double t = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [t](double x) { return x > t; }));
}

/// The reporting rule for timings: the highest of the usual percentiles
/// that still has at least \p min_beyond samples above it. Returns the
/// percentile (e.g. 95.0), or 0 when even the median is unsupported.
inline double supported_percentile(std::size_t n, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // floor(n * (1 - p)) samples sit above the p-quantile of n samples.
    const double beyond = std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9);
    if (beyond >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

/// One request observed during a rung: when it was due and how long it took
/// from that moment until its reply (failed requests carry ok = false).
struct Sample {
  double due_s = 0.0;
  double latency_ms = 0.0;
  bool ok = true;
};

/// Latency trend across a rung: median latency of the last third of
/// requests (by due time) minus that of the first third; 0 with fewer than
/// six samples.
inline double latency_trend_ms(std::vector<Sample> samples) {
  if (samples.size() < 6) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due_s < b.due_s; });
  const std::size_t third = samples.size() / 3;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < third; ++i) first.push_back(samples[i].latency_ms);
  for (std::size_t i = samples.size() - third; i < samples.size(); ++i)
    last.push_back(samples[i].latency_ms);
  return median(last) - median(first);
}

/// Share of the offered rate a rung must complete to count as keeping up.
inline constexpr double kKeepUpShare = 0.95;

/// True when the rung's queue kept growing: requests were still unanswered
/// when it ended, replies completed at under kKeepUpShare of the offered
/// rate, or the latency trend exceeds \p slack_ms.
inline bool backlog_growing(const std::vector<Sample>& samples, double slack_ms,
                            std::size_t unanswered, double achieved_rps, double offered_rps) {
  return unanswered > 0 || achieved_rps < kKeepUpShare * offered_rps ||
         latency_trend_ms(samples) > slack_ms;
}

/// Completion rate of a rung from its reply times (seconds from rung
/// start): replies between the 10th and 90th percentile reply time over
/// that span. Trimming both ends keeps the first and last requests'
/// latencies out of the rate, so a rung that keeps up reads its offered
/// rate and an overloaded one reads the service capacity.
inline double completion_rate(const std::vector<double>& done_s) {
  if (done_s.size() < 10) return 0.0;
  const double lo = quantile(done_s, 0.10);
  const double hi = quantile(done_s, 0.90);
  if (!(hi > lo)) return 0.0;
  const auto inside = std::count_if(done_s.begin(), done_s.end(),
                                    [&](double t) { return t >= lo && t <= hi; });
  return static_cast<double>(inside - 1) / (hi - lo);
}

/// Outcome of one offered-rate rung.
struct Rung {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;   ///< replies completed ok per second of rung
  double small_tail_ms = 0.0;  ///< small latency at the limit percentile
  double bulk_tail_ms = 0.0;   ///< bulk latency at the limit percentile (0 = none)
  std::size_t failures = 0;    ///< failed + refused + unanswered, all classes
  bool backlog = false;
  double trend_ms = 0.0;       ///< latency_trend_ms of the rung's small requests
};

struct Limits {
  double small_tail_ms = 0.0;
  double bulk_tail_ms = 0.0;
};

inline bool rung_passes(const Rung& r, const Limits& lim) {
  return r.failures == 0 && !r.backlog && r.small_tail_ms <= lim.small_tail_ms &&
         r.bulk_tail_ms <= lim.bulk_tail_ms;
}

/// Index of the highest rung (rungs in ascending offered rate) that passes
/// with every lower rung passing too; -1 when the base rung fails.
inline int highest_passing_rung(const std::vector<Rung>& rungs, const Limits& lim) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_passes(rungs[i], lim)) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
