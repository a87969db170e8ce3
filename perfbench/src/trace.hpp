// The benchmark's own spans. Each span wraps one call into a library layer
// (name, start, end, parent, operation id); they stay in memory and are
// written out when the run ends. A disabled Trace records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  static constexpr std::int64_t kInherit = -2;  ///< parent = this thread's open span
  static constexpr std::int64_t kRoot = -1;     ///< no parent

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = kRoot;
    std::uint64_t op = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; records on destruction. Parent defaults to the innermost
  /// span this thread has open on the same Trace.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, std::uint64_t op = 0,
          std::int64_t parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span, usable as an explicit parent from other threads
    /// (-1 when tracing is off).
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Trace* trace_ = nullptr;
    std::int64_t id_ = kRoot;
    std::int64_t saved_ = kRoot;
  };

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its children (children on other threads count too).
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name() const;
  /// Self time and duration of one span.
  [[nodiscard]] double self_seconds(std::int64_t id) const;
  [[nodiscard]] double duration_seconds(std::int64_t id) const;
  [[nodiscard]] std::size_t size() const;
  /// Spans as a JSON array of {name, start_ns, end_ns, parent, op}.
  [[nodiscard]] std::string to_json() const;

  /// Builds a span from explicit timestamps (self-tests only).
  std::int64_t add(Span span);

 private:
  using Clock = std::chrono::steady_clock;
  std::uint64_t now_ns() const;
  std::vector<double> self_all() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
