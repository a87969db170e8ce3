// Self-tests for the benchmark's own rules: the percentile rule, quantiles,
// the rate ladder, backlog detection and span self time. Exits non-zero on
// the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;

  // Percentile rule: the highest percentile with >= 10 samples beyond it.
  check(supported_percentile(9) == 0.0, "9 samples support no percentile");
  check(supported_percentile(19) == 0.0, "19 samples support no percentile");
  check(supported_percentile(20) == 50.0, "20 samples support p50");
  check(supported_percentile(40) == 75.0, "40 samples support p75");
  check(supported_percentile(99) == 75.0, "99 samples stop short of p90");
  check(supported_percentile(100) == 90.0, "100 samples support p90");
  check(supported_percentile(200) == 95.0, "200 samples support p95");
  check(supported_percentile(999) == 95.0, "999 samples stop short of p99");
  check(supported_percentile(1000) == 99.0, "1000 samples support p99");
  check(supported_percentile(10000) == 99.9, "10000 samples support p99.9");
  for (std::size_t n : {20u, 40u, 100u, 200u, 1000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    check(count_beyond(v, supported_percentile(n) / 100.0) >= 10,
          "supported percentile leaves >= 10 samples beyond it");
  }

  // Quantiles interpolate linearly between order statistics.
  check(near(quantile({3, 1, 2}, 0.5), 2.0), "median of 1,2,3");
  check(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4");
  check(near(quantile({0, 10}, 0.9), 9.0), "p90 of 0,10");
  check(std::isnan(quantile({}, 0.5)), "empty quantile is NaN");

  // Backlog: flat latencies are steady; a rising trend or unanswered
  // requests mean the queue grows.
  std::vector<Sample> flat, rising;
  for (int i = 0; i < 90; ++i) {
    flat.push_back({i * 0.1, 40.0 + (i % 3), true});
    rising.push_back({i * 0.1, 40.0 + 10.0 * i, true});
  }
  check(!backlog_growing(flat, 100.0, 0, 10.0, 10.0), "flat latencies: no backlog");
  check(backlog_growing(rising, 100.0, 0, 10.0, 10.0), "rising latencies: backlog");
  check(backlog_growing(flat, 100.0, 1, 10.0, 10.0), "unanswered requests: backlog");
  check(backlog_growing(flat, 100.0, 0, 9.0, 10.0), "falling behind the offered rate: backlog");
  check(!backlog_growing(flat, 100.0, 0, 9.6, 10.0), "within the keep-up share: no backlog");
  check(!backlog_growing({{0, 1, true}, {1, 900, true}}, 10.0, 0, 1.0, 1.0),
        "too few samples: no trend verdict");

  // Completion rate: a rung that keeps up reads its offered rate; one
  // served at half speed reads the service rate.
  std::vector<double> keep, slow;
  for (int i = 0; i < 200; ++i) {
    keep.push_back(i / 20.0 + 0.05 + (i % 7) * 0.01);
    slow.push_back(i / 10.0);
  }
  check(std::fabs(completion_rate(keep) - 20.0) < 0.5, "kept-up rung reads its offered rate");
  check(std::fabs(completion_rate(slow) - 10.0) < 0.2, "overloaded rung reads the service rate");
  check(completion_rate({1, 2, 3}) == 0.0, "too few replies give no rate");

  // Ladder: highest passing rung with every lower rung passing.
  const Limits lim{100.0, 1000.0};
  std::vector<Rung> rungs = {
      {10, 10, 50, 500, 0, false}, {15, 15, 80, 600, 0, false}, {22, 20, 300, 700, 0, false},
      {33, 20, 90, 500, 0, false}};
  check(highest_passing_rung(rungs, lim) == 1, "ladder stops at the first failing rung");
  rungs[0].failures = 1;
  check(highest_passing_rung(rungs, lim) == -1, "a failure fails the base rung");
  rungs[0].failures = 0;
  rungs[1].backlog = true;
  check(highest_passing_rung(rungs, lim) == 0, "a growing backlog fails a rung");
  rungs[1].backlog = false;
  rungs[1].bulk_tail_ms = 1500;
  check(highest_passing_rung(rungs, lim) == 0, "bulk tail over its limit fails a rung");

  // Span self time: a parent's duration minus the union of its children,
  // overlapping children counted once.
  Trace t(true);
  const auto root = t.add({"root", 0, 1000, Trace::kRoot, 0});
  t.add({"a", 100, 400, root, 1});
  t.add({"b", 300, 600, root, 2});   // overlaps a
  t.add({"c", 900, 1200, root, 3});  // runs past the root's end
  check(near(t.self_seconds(root), 400e-9), "root self time excludes the union of children");
  const auto self = t.self_seconds_by_name();
  check(near(self.at("a"), 300e-9), "leaf self time is its duration");
  Trace off(false);
  { Trace::Scope s(off, "x"); }
  check(off.size() == 0, "a disabled trace records nothing");

  if (failures == 0) std::printf("perfbench self-tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
