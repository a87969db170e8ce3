#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
thread_local const Trace* tl_trace = nullptr;
thread_local std::int64_t tl_open = Trace::kRoot;
}  // namespace

std::uint64_t Trace::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
}

Trace::Scope::Scope(Trace& trace, const char* name, std::uint64_t op, std::int64_t parent) {
  if (!trace.enabled_) return;
  trace_ = &trace;
  if (parent == kInherit) parent = (tl_trace == &trace) ? tl_open : kRoot;
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start_ns = trace.now_ns();
  {
    std::lock_guard<std::mutex> lock(trace.mu_);
    id_ = static_cast<std::int64_t>(trace.spans_.size());
    trace.spans_.push_back(std::move(s));
  }
  saved_ = (tl_trace == &trace) ? tl_open : kRoot;
  tl_trace = &trace;
  tl_open = id_;
}

Trace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  const std::uint64_t end = trace_->now_ns();
  {
    std::lock_guard<std::mutex> lock(trace_->mu_);
    trace_->spans_[static_cast<std::size_t>(id_)].end_ns = end;
  }
  tl_open = saved_;
}

std::int64_t Trace::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Trace::self_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = p.end_ns > p.start_ns ? p.end_ns - p.start_ns : 0;
    self[i] = static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Trace::self_seconds_by_name() const {
  const std::vector<double> self = self_all();
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

double Trace::self_seconds(std::int64_t id) const {
  if (id < 0) return 0.0;
  return self_all().at(static_cast<std::size_t>(id));
}

double Trace::duration_seconds(std::int64_t id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_ns > s.start_ns ? static_cast<double>(s.end_ns - s.start_ns) * 1e-9 : 0.0;
}

std::string Trace::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"name\":\"", i ? "," : "", i);
    out += buf;
    out += s.name;  // span names are identifiers chosen in this benchmark
    std::snprintf(buf, sizeof(buf), "\",\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%lld,\"op\":%llu}",
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

}  // namespace perfbench
