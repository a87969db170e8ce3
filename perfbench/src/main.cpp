// perfbench: the repository benchmark program.
//
//   perfbench --workload <codec-nyx128|bestfit|svc-mixed> --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Prints a run-context JSON line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics in
// untraced runs, the per-layer metrics in traced runs. Exits non-zero when
// any output is wrong or the run cannot complete.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [_, c] : classes) n += c.attempted;
  return n;
}

std::uint64_t Report::not_ok() const {
  std::uint64_t n = 0;
  for (const auto& [_, c] : classes) n += c.failed + c.refused + c.unanswered;
  return n;
}

double median_setup_seconds(const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < kSetupReps; ++i) walls.push_back(timed(setup));
  return median(walls);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 over (seed, tag): distinct tags give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xD1B54A32D192ED03ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFull;  // stays exact as a JSON number
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + jstr(name) + ": {\"value\": " + num(metric.value) +
           ", \"unit\": " + jstr(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string classes_json(const std::map<std::string, ClassCounts>& classes) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, c] : classes) {
    out += (first ? "" : ", ") + jstr(name) + ": {\"attempted\": " +
           std::to_string(c.attempted) + ", \"ok\": " + std::to_string(c.ok) +
           ", \"failed\": " + std::to_string(c.failed) +
           ", \"refused\": " + std::to_string(c.refused) +
           ", \"unanswered\": " + std::to_string(c.unanswered) + ", \"reasons\": {";
    bool rf = true;
    for (const auto& [r, n] : c.reasons) {
      out += (rf ? "" : ", ") + jstr(r) + ": " + std::to_string(n);
      rf = false;
    }
    out += "}}";
    first = false;
  }
  return out + "}";
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload codec-nyx128|bestfit|svc-mixed "
               "--seed N --seconds S --trace 0|1 [--smoke]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(("unknown or incomplete argument: " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  // A fixed mmap threshold: blocks of 4 MiB and more are mapped on
  // allocation and returned on free. glibc's default threshold adapts to
  // the allocation history, which made peak RSS bimodal run to run
  // depending on which thread freed a large buffer first.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);

  Report report;
  Trace trace(opt.trace);
  try {
    if (opt.workload == "codec-nyx128") {
      run_codec(opt, report, trace);
    } else if (opt.workload == "bestfit") {
      run_bestfit(opt, report, trace);
    } else if (opt.workload == "svc-mixed") {
      run_svc(opt, report, trace);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  const std::uint64_t attempted = report.attempted();
  const std::uint64_t not_ok = report.not_ok();
  report.notes["fail_frac"] = num(attempted ? static_cast<double>(not_ok) / attempted : 1.0);
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");

  std::string trace_file;
  if (opt.trace) {
    std::string self = "{";
    for (const auto& [name, s] : trace.self_seconds_by_name()) {
      self += (self.size() > 1 ? ", " : "") + jstr(name) + ": " + num(s);
    }
    report.notes["span_self_s"] = self + "}";
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(".bench_build") / "perfbench-traces";
    std::error_code ec;
    fs::create_directories(dir, ec);
    trace_file = (dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json")).string();
    std::ofstream(trace_file) << trace.to_json();
  }

  std::string ctx = "{\"context\": {\"workload\": " + jstr(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + num(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "true" : "false") +
                    ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                    ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"l1d_bytes\": " + std::to_string(cache_bytes(_SC_LEVEL1_DCACHE_SIZE)) +
                    ", \"l2_bytes\": " + std::to_string(cache_bytes(_SC_LEVEL2_CACHE_SIZE)) +
                    ", \"l3_bytes\": " + std::to_string(cache_bytes(_SC_LEVEL3_CACHE_SIZE)) +
                    ", \"build_type\": " + jstr(PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : report.notes) ctx += ", " + jstr(k) + ": " + v;
  if (!trace_file.empty()) ctx += ", \"trace_file\": " + jstr(trace_file);
  ctx += "}, \"classes\": " + classes_json(report.classes) + ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    ctx += (i ? ", " : "") + jstr(report.errors[i]);
  }
  ctx += "], \"end_to_end\": " + metrics_json(report.end_to_end) + "}";
  std::printf("%s\n", ctx.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(not_ok),
              metrics_json(opt.trace ? report.per_layer : report.end_to_end).c_str());
  std::fflush(stdout);
  return report.correct && attempted > 0 ? 0 : 1;
}
