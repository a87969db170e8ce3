/// \file foresightd_main.cpp
/// \brief The foresightd binary: serve compression jobs over a Unix socket
/// and, optionally, a TCP listener sharing the same pipeline. The flags are
/// listed in kUsage below.
///
/// --tcp-port 0 binds an ephemeral port; --tcp-port-file writes the bound
/// port as a single decimal line once listening (for scripts that need to
/// discover it).
///
/// --config points at a JSON file whose optional "faults" object installs a
/// deterministic fault plan for the daemon's lifetime (same schema as the
/// pipeline config; see pipeline.hpp).
///
/// SIGTERM and SIGINT start a graceful drain: the listen socket closes, new
/// jobs are rejected with "draining", admitted jobs finish (or are
/// cancelled when --drain-budget expires), metrics are flushed, and the
/// process exits 0.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "foresight/pipeline.hpp"
#include "foresightd/daemon.hpp"
#include "json/json.hpp"

namespace {

constexpr const char* kUsage =
    "usage: foresightd --socket /tmp/foresightd.sock [--workers N]\n"
    "                  [--tcp-port PORT] [--tcp-host 127.0.0.1]\n"
    "                  [--tcp-port-file PATH]\n"
    "                  [--queue-capacity N] [--quota N] [--priorities N]\n"
    "                  [--default-deadline SECONDS] [--drain-budget SECONDS]\n"
    "                  [--transfer-idle SECONDS] [--transfer-budget BYTES]\n"
    "                  [--stream-threshold BYTES] [--dataset-cache BYTES]\n"
    "                  [--gpu \"Tesla V100\"] [--metrics-out metrics.json]\n"
    "                  [--config config.json]\n";

std::atomic<int> g_signal_fd{-1};

void on_signal(int) {
  // Async-signal-safe shutdown: one byte into the daemon's wake pipe.
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cosmo;
  const CliArgs args = parse_tool_args(
      argc, argv,
      {"socket", "workers", "tcp-port", "tcp-host", "tcp-port-file", "queue-capacity", "quota",
       "priorities", "default-deadline", "drain-budget", "transfer-idle", "transfer-budget",
       "stream-threshold", "dataset-cache", "gpu", "metrics-out", "config"},
      kUsage);
  foresightd::DaemonOptions options;
  options.socket_path = args.get("socket", "");
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "foresightd: --socket PATH is required\n%s", kUsage);
    return 2;
  }
  options.workers = static_cast<std::size_t>(args.get_int("workers", 2));
  options.tcp_port = static_cast<int>(args.get_int("tcp-port", -1));
  options.tcp_host = args.get("tcp-host", "127.0.0.1");
  options.queue_capacity = static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  options.per_client_quota = static_cast<std::size_t>(args.get_int("quota", 0));
  options.priorities = static_cast<int>(args.get_int("priorities", 3));
  options.default_deadline_seconds = args.get_double("default-deadline", 0.0);
  options.drain_budget_seconds = args.get_double("drain-budget", 5.0);
  options.transfer_idle_seconds = args.get_double("transfer-idle", 30.0);
  const auto transfer_budget = args.get_int("transfer-budget", 0);
  if (transfer_budget > 0) {
    options.transfer_limits.budget_bytes = static_cast<std::uint64_t>(transfer_budget);
  }
  options.response_stream_threshold =
      static_cast<std::uint64_t>(args.get_int("stream-threshold", 0));
  const auto cache_bytes = args.get_int("dataset-cache", 0);
  if (cache_bytes > 0) {
    options.dataset_cache_bytes = static_cast<std::uint64_t>(cache_bytes);
  }
  options.gpu = args.get("gpu", "Tesla V100");
  options.metrics_out = args.get("metrics-out", "");

  try {
    const std::string config_path = args.get("config", "");
    if (!config_path.empty()) {
      options.faults = foresight::parse_faults(json::parse_file(config_path));
    }

    foresightd::Daemon daemon(options);
    daemon.start();
    g_signal_fd.store(daemon.signal_fd(), std::memory_order_relaxed);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    if (daemon.bound_tcp_port() >= 0) {
      std::fprintf(stderr,
                   "foresightd: listening on %s + tcp:%s:%d (%zu workers, capacity %zu)\n",
                   options.socket_path.c_str(), options.tcp_host.c_str(),
                   daemon.bound_tcp_port(), options.workers, options.queue_capacity);
      const std::string port_file = args.get("tcp-port-file", "");
      if (!port_file.empty()) {
        if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
          std::fprintf(f, "%d\n", daemon.bound_tcp_port());
          std::fclose(f);
        }
      }
    } else {
      std::fprintf(stderr, "foresightd: listening on %s (%zu workers, capacity %zu)\n",
                   options.socket_path.c_str(), options.workers, options.queue_capacity);
    }
    daemon.wait();

    const auto s = daemon.stats();
    std::fprintf(stderr,
                 "foresightd: drained. admitted=%llu ok=%llu failed=%llu cancelled=%llu "
                 "deadline=%llu rejected=%llu protocol_errors=%llu queue_high_water=%zu "
                 "transfers=%llu transfers_reaped=%llu\n",
                 static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.ok),
                 static_cast<unsigned long long>(s.failed),
                 static_cast<unsigned long long>(s.cancelled),
                 static_cast<unsigned long long>(s.deadline),
                 static_cast<unsigned long long>(s.rejected),
                 static_cast<unsigned long long>(s.protocol_errors), s.queue_high_water,
                 static_cast<unsigned long long>(s.transfers_completed),
                 static_cast<unsigned long long>(s.transfers_reaped));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "foresightd: %s\n", e.what());
    return 1;
  }
}
