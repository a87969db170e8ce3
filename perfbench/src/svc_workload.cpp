// svc-mixed: an open loop against an in-process foresightd daemon (2
// workers, unix socket), stepped through a ladder of offered small-request
// rates with a fixed background of bulk operations.
//   small: compress-by-dataset-spec of a Nyx 64^3 field with returned bytes,
//          codecs in the pattern sz-cpu, zfp-cpu, sz-cpu; one pipelined
//          connection with a sender and a receiver thread.
//   bulk:  upload a raw 128^3 field, inline-dataset compress with returned
//          bytes, upload those bytes, decompress job; one connection.
// Latency is timed from each request's scheduled send time, so generator
// stalls count against the system; generator lateness is reported.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sched.h>
#include <thread>
#include <unistd.h>

#include "cosmo/nyx_synth.hpp"
#include "foresight/compressor.hpp"
#include "foresightd/api.hpp"
#include "foresightd/client.hpp"
#include "foresightd/daemon.hpp"
#include "io/crc32.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fs = cosmo::foresight;
namespace fd = cosmo::foresightd;

namespace {

// Offered small-request rates and each rung's share of --seconds. The base
// rung runs at low load and gives >= 200 samples (p95); the others give
// >= 100 (p90). The seed code completes 30-75 small/s on 4 cores depending
// on host speed, so 16/s passes and 120/s fails with margin on either side.
struct RungSpec {
  double rps;
  double share;
};
constexpr RungSpec kLadder[] = {{10.0, 1.0}, {16.0, 0.25}, {120.0, 0.05}};
constexpr double kBaseMinSamples = 200.0;
constexpr double kMinRungSamples = 100.0;
constexpr double kBulkRps = 0.25;
// The base rung opens with one bulk period whose outcomes are checked and
// counted but left out of its latency figures: a rung's first bulk
// operation ran 30-50% slower than the rest, even after set-up's warm-up
// operation, and alone set the base rung's small-request tail in most runs.
constexpr double kBaseWarmSeconds = 1.0 / kBulkRps;
// Pass limits, calibrated on the seed code and also recorded in
// BENCHMARK.json's workload description.
constexpr double kSmallLimitMs = 800.0;   // small p90 in every rung
constexpr double kBulkLimitMs = 6000.0;   // slowest bulk operation in the rung
constexpr double kBacklogSlackMs = 400.0;
constexpr double kDrainSeconds = 20.0;
// Bulk uploads use 512 KiB chunks (the client default is 4 MiB): each chunk
// frame holds the daemon's IO thread while it is parsed and decoded, so a
// run sees ~100 short head-of-line blocking events instead of ~10 long
// ones, and the small-request tail becomes a steady statistic.
constexpr std::size_t kBulkChunkBytes = 512u << 10;
constexpr const char* kSmallCodecs[2] = {"sz-cpu", "zfp-cpu"};

struct SmallRef {
  std::uint32_t crc = 0;
  std::size_t size = 0;
};

struct State {
  std::uint64_t nyx_seed = 0;
  std::size_t small_dim = 64;
  cosmo::io::Container nyx;           // what the daemon generates from the spec
  std::vector<std::string> fields;
  std::vector<fs::CompressorConfig> small_cfg[2];  // [codec][field]
  std::vector<SmallRef> small_ref[2];
  cosmo::Field bulk;                  // raw field the bulk operations upload
  fs::CompressorConfig bulk_cfg{"rate", 8.0};
  std::uint32_t bulk_crc = 0, bulk_values_crc = 0;
  std::size_t bulk_size = 0;
  std::string socket;
  std::unique_ptr<fd::Daemon> daemon;
};

struct SmallReq {
  double due_s = 0.0;
  int codec = 0;
  std::size_t field = 0;
};

struct SmallOutcome {
  bool measured = true;        // false inside the rung's warm-up
  double send_late_ms = 0.0;   // written by the sender only
  double encode_ms = 0.0;
  bool answered = false;       // written by the receiver only
  bool ok = false;
  std::string why;             // failure reason when !ok
  double latency_ms = 0.0;
  double codec_s = 0.0, queue_s = 0.0;
  double done_s = 0.0;         // reply time from rung start
  std::size_t original = 0, compressed = 0;
};

struct BulkOutcome {
  bool measured = true;        // false inside the rung's warm-up
  double due_s = 0.0;
  bool done = false, ok = false;
  std::string why;             // failure reason when !ok
  double latency_ms = 0.0, start_late_ms = 0.0;
  double upload_s = 0.0;
  std::size_t upload_bytes = 0;
};

struct RungResult {
  Rung rung;
  std::vector<SmallOutcome> small;
  std::vector<BulkOutcome> bulk;
  std::vector<Sample> small_samples;
};

// Thread placement. On a 4-vCPU VM the scheduler left every thread of the
// process on one vCPU in about half of the runs (the other three idle:
// the threads are bursty and their average load is under one CPU), so
// during bulk uploads the daemon's IO thread, a worker and the generator
// time-shared that vCPU, in-window small-request codec time doubled and
// the small-request p95 flipped between two values from run to run. So
// each daemon thread is pinned to its own CPU and the generator to the
// CPU of the mostly idle watchdog.

/// The CPUs this process may run on, read before anything is pinned.
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    if (v.empty()) v.push_back(0);
    return v;
  }();
  return cpus;
}

/// Sets the CPUs of thread \p tid (0 = the calling thread); best effort.
void set_cpus(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

/// The process's thread ids, ascending; empty when /proc is not there.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void start_daemon(State& st) {
  fd::DaemonOptions o;
  o.socket_path = st.socket;
  o.workers = 2;
  o.queue_capacity = 4096;  // overload shows as latency and backlog, not refusals
  const std::vector<int>& cpus = usable_cpus();
  const std::vector<pid_t> before = thread_ids();
  st.daemon = std::make_unique<fd::Daemon>(o);
  st.daemon->start();
  // start() spawns the workers, then the watchdog, then the IO thread.
  std::size_t slot = 0;
  for (const pid_t tid : thread_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      set_cpus(tid, {cpus[slot++ % cpus.size()]});
    }
  }
  set_cpus(0, {cpus[o.workers % cpus.size()]});  // the generator threads inherit this
}

void stop_daemon(State& st) {
  if (!st.daemon) return;
  st.daemon->request_shutdown();
  st.daemon->wait();
  st.daemon.reset();
}

fd::CompressRequest small_request(const State& st, const SmallReq& r) {
  fd::CompressRequest q;
  q.codec = kSmallCodecs[r.codec];
  q.mode = st.small_cfg[r.codec][r.field].mode;
  q.value = st.small_cfg[r.codec][r.field].value;
  q.dataset = fd::nyx_dataset(st.small_dim, st.nyx_seed);
  q.field = st.fields[r.field];
  q.return_bytes = true;
  return q;
}

/// Checks one small reply against the single-shot reference.
bool small_reply_ok(const State& st, const SmallReq& r, const fd::JobReply& reply,
                    std::string& why) {
  if (!reply.ok()) {
    why = reply.kind == fd::ReplyKind::kResult ? reply.status + ":" + reply.reason : "not_result";
    return false;
  }
  const SmallRef& ref = st.small_ref[r.codec][r.field];
  const auto crc = static_cast<std::uint32_t>(reply.raw.get("crc32", -1.0));
  if (crc != ref.crc || reply.payload.size() != ref.size ||
      cosmo::crc32(reply.payload.data(), reply.payload.size()) != ref.crc) {
    why = "mismatch";
    return false;
  }
  return true;
}

/// One bulk operation on \p client; returns "" on success or a reason.
std::string bulk_op(State& st, fd::Client& client, const std::string& tag, BulkOutcome& out) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(st.bulk.data.data());
  const auto t_up = Clock::now();
  const auto up = client.upload(tag + "-raw", raw, st.bulk.bytes(), kBulkChunkBytes);
  out.upload_s += seconds_since(t_up);
  out.upload_bytes += st.bulk.bytes();
  if (!up.ok) return "upload:" + up.reason;
  fd::CompressRequest c;
  c.codec = "zfp-cpu";
  c.mode = st.bulk_cfg.mode;
  c.value = st.bulk_cfg.value;
  c.dataset = fd::inline_dataset(tag + "-raw", st.bulk.dims);
  c.field = st.bulk.name;
  c.return_bytes = true;
  const fd::JobReply cr = client.call_reply(c.to_request(1));
  if (!cr.ok()) return "compress:" + cr.status + ":" + cr.reason;
  if (static_cast<std::uint32_t>(cr.raw.get("crc32", -1.0)) != st.bulk_crc ||
      cr.payload.size() != st.bulk_size ||
      cosmo::crc32(cr.payload.data(), cr.payload.size()) != st.bulk_crc) {
    return "mismatch";
  }
  const auto t_up2 = Clock::now();
  const auto up2 = client.upload(tag + "-cmp", cr.payload, kBulkChunkBytes);
  out.upload_s += seconds_since(t_up2);
  out.upload_bytes += cr.payload.size();
  if (!up2.ok) return "upload:" + up2.reason;
  fd::DecompressRequest d;
  d.codec = "zfp-cpu";
  d.payload_transfer = tag + "-cmp";
  const fd::JobReply dr = client.call_reply(d.to_request(2));
  if (!dr.ok()) return "decompress:" + dr.status + ":" + dr.reason;
  if (static_cast<std::uint32_t>(dr.raw.get("values_crc32", -1.0)) != st.bulk_values_crc) {
    return "mismatch";
  }
  return "";
}

void setup(State& st, const Options& opt, double& generate_s) {
  stop_daemon(st);
  st = State{};
  st.small_dim = opt.smoke ? 32 : 64;
  st.nyx_seed = derive_seed(opt.seed, 21);
  cosmo::NyxConfig bulk_cfg;
  bulk_cfg.dim = opt.smoke ? 32 : 128;
  bulk_cfg.seed = derive_seed(opt.seed, 22);
  generate_s = timed([&] {
    cosmo::NyxConfig cfg;
    cfg.dim = st.small_dim;
    cfg.seed = st.nyx_seed;
    st.nyx = cosmo::generate_nyx(cfg);
    st.bulk = cosmo::generate_nyx_delta(bulk_cfg);
  });
  // Single-shot references for every reply the daemon can send.
  for (int k = 0; k < 2; ++k) {
    auto comp = fs::make_compressor(kSmallCodecs[k], nullptr);
    auto session = comp->open_session();
    st.small_cfg[k].clear();
    for (const auto& v : st.nyx.variables) {
      if (k == 0) st.fields.push_back(v.field.name);
      st.small_cfg[k].push_back(primary_config(kSmallCodecs[k], v.field));
      const auto r = session->compress(v.field, st.small_cfg[k].back());
      st.small_ref[k].push_back({cosmo::crc32(r.bytes.data(), r.bytes.size()), r.bytes.size()});
    }
  }
  {
    auto comp = fs::make_compressor("zfp-cpu", nullptr);
    auto session = comp->open_session();
    const auto c = session->compress(st.bulk, st.bulk_cfg);
    st.bulk_crc = cosmo::crc32(c.bytes.data(), c.bytes.size());
    st.bulk_size = c.bytes.size();
    st.bulk_values_crc = values_crc(session->decompress(c).values);
  }
  namespace fsys = std::filesystem;
  fsys::create_directories(".bench_build");
  st.socket = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  start_daemon(st);
  // Warm-up: every small request kind once (fills the daemon's dataset
  // cache and worker sessions) and one bulk operation (the first one pays
  // for cold transfer and 128^3 codec buffers, which otherwise dominated
  // the base rung's small-request tail).
  fd::Client client(st.socket);
  for (int k = 0; k < 2; ++k) {
    for (std::size_t f = 0; f < st.fields.size(); ++f) {
      std::string why;
      const SmallReq r{0.0, k, f};
      if (!small_reply_ok(st, r, client.call_reply(small_request(st, r).to_request(1)), why)) {
        throw std::runtime_error("svc warm-up request failed: " + why);
      }
    }
  }
  BulkOutcome warm;
  const std::string why = bulk_op(st, client, "warm", warm);
  if (!why.empty()) throw std::runtime_error("svc warm-up bulk operation failed: " + why);
}

/// Runs one rung: \p warm_s seconds of warm-up, then \p duration measured
/// seconds at the same offered rates.
RungResult run_rung(State& st, const Options& opt, int rung_index, double small_rps,
                    double warm_s, double duration, std::uint64_t seq_base, Report& report,
                    Trace& trace, std::int64_t parent) {
  RungResult res;
  res.rung.offered_rps = small_rps;
  // Fields go round-robin (each codec slot sees every field) from a seeded
  // starting field.
  const std::size_t field_offset =
      derive_seed(opt.seed, 100 + static_cast<std::uint64_t>(rung_index)) % st.fields.size();
  const double span_s = warm_s + duration;
  const std::size_t n_small = static_cast<std::size_t>(small_rps * span_s);
  std::vector<SmallReq> plan(n_small);
  for (std::size_t i = 0; i < n_small; ++i) {
    // Codec pattern sz, zfp, sz: both codecs every three requests, with sz
    // the majority so the median sits inside one latency mode.
    plan[i] = {static_cast<double>(i) / small_rps, i % 3 == 1 ? 1 : 0,
               (i / 3 + field_offset) % st.fields.size()};
  }
  const std::size_t n_bulk = std::max<std::size_t>(1, static_cast<std::size_t>(kBulkRps * span_s));
  res.bulk.resize(n_bulk);
  for (std::size_t i = 0; i < n_bulk; ++i) {
    res.bulk[i].due_s = (static_cast<double>(i) + 0.5) / kBulkRps;
    res.bulk[i].measured = res.bulk[i].due_s >= warm_s;
  }
  res.small = std::vector<SmallOutcome>(n_small);
  for (std::size_t i = 0; i < n_small; ++i) res.small[i].measured = plan[i].due_s >= warm_s;

  fd::Client small_client(st.socket);
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool receiver_done = false;
  std::size_t unparseable = 0;  // receiver thread only until it is joined
  bool gave_up = false;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };

  std::thread sender([&] {
    for (std::size_t i = 0; i < n_small; ++i) {
      std::this_thread::sleep_until(at(plan[i].due_s));
      SmallOutcome& o = res.small[i];
      o.send_late_ms = std::chrono::duration<double, std::milli>(Clock::now() - at(plan[i].due_s)).count();
      const std::uint64_t id = seq_base + i;
      try {
        Trace::Scope span(trace, "foresightd.client_submit", id, parent);
        const auto te = Clock::now();
        small_client.submit(small_request(st, plan[i]).to_request(id));
        o.encode_ms = seconds_since(te) * 1e3;
      } catch (const std::exception&) {
        return;  // connection gone: the rest stay unsent
      }
    }
  });
  std::thread receiver([&] {
    std::size_t answered = 0;
    while (answered + unparseable < n_small) {
      fd::JobReply reply;
      try {
        Trace::Scope span(trace, "foresightd.client_recv_reply", 0, parent);
        reply = small_client.recv_reply();
      } catch (const cosmo::FormatError&) {
        ++unparseable;  // a reply frame the client cannot parse
        continue;
      } catch (const std::exception&) {
        break;  // connection closed (daemon stopped by the drain watchdog)
      }
      const auto now = Clock::now();
      if (reply.kind != fd::ReplyKind::kResult || reply.id < seq_base ||
          reply.id >= seq_base + n_small) {
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(reply.id - seq_base);
      SmallOutcome& o = res.small[i];
      if (o.answered) continue;
      o.answered = true;
      ++answered;
      o.latency_ms = std::chrono::duration<double, std::milli>(now - at(plan[i].due_s)).count();
      o.done_s = std::chrono::duration<double>(now - t0).count();
      o.ok = small_reply_ok(st, plan[i], reply, o.why);
      o.codec_s = reply.raw.get("compress_seconds", 0.0);
      o.queue_s = reply.raw.get("queue_wait_seconds", 0.0);
      o.original = static_cast<std::size_t>(reply.raw.get("original_bytes", 0.0));
      o.compressed = reply.payload.size();
    }
    std::lock_guard<std::mutex> lock(done_mu);
    receiver_done = true;
    done_cv.notify_all();
  });
  // The bulk loop runs on this thread: one generator thread fewer.
  const auto run_bulk = [&] {
    std::unique_ptr<fd::Client> client;
    try {
      client = std::make_unique<fd::Client>(st.socket);
    } catch (const std::exception&) {
      return;  // every bulk operation stays not done: counted unanswered
    }
    for (std::size_t i = 0; i < n_bulk; ++i) {
      BulkOutcome& b = res.bulk[i];
      std::this_thread::sleep_until(at(b.due_s));
      b.start_late_ms = std::chrono::duration<double, std::milli>(Clock::now() - at(b.due_s)).count();
      try {
        Trace::Scope span(trace, "foresightd.bulk_operation", i, parent);
        b.why = bulk_op(st, *client, "r" + std::to_string(rung_index) + "-" + std::to_string(i), b);
      } catch (const cosmo::FormatError&) {
        b.why = "unparseable";
      } catch (const std::exception&) {
        b.why = "io";
      }
      b.done = true;
      b.ok = b.why.empty();
      b.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - at(b.due_s)).count();
      if (b.why == "io") return;  // connection gone
    }
  };
  run_bulk();
  sender.join();
  {
    // Drain: every admitted request gets exactly one answer; if some never
    // do, stop the daemon so the receiver unblocks and count them.
    std::unique_lock<std::mutex> lock(done_mu);
    if (!done_cv.wait_for(lock, std::chrono::duration<double>(kDrainSeconds),
                          [&] { return receiver_done; })) {
      gave_up = true;
      lock.unlock();
      stop_daemon(st);
    }
  }
  receiver.join();

  // Accounting and the rung's pass/fail inputs.
  ClassCounts& sc = report.classes["small"];
  ClassCounts& bc = report.classes["bulk"];
  std::vector<double> lat, done_s;
  std::size_t ok_small = 0, unanswered = 0;
  for (std::size_t i = 0; i < n_small; ++i) {
    const SmallOutcome& o = res.small[i];
    ++sc.attempted;
    if (!o.answered) {
      ++sc.unanswered;
      ++unanswered;
      continue;
    }
    if (o.measured) {
      res.small_samples.push_back({plan[i].due_s, o.latency_ms, o.ok});
      lat.push_back(o.ok ? o.latency_ms : 1e12);  // a failure misses any latency limit
    }
    if (o.ok) {
      ++sc.ok;
      ++ok_small;
      if (o.measured) done_s.push_back(o.done_s);
    } else if (o.why == "mismatch") {
      report.mismatch("small", std::string(kSmallCodecs[plan[i].codec]) + "/" +
                                   st.fields[plan[i].field] + ": reply differs from reference");
    } else {
      ++sc.failed;
      ++sc.reasons[o.why];
    }
  }
  // Replies the client could not parse carry no usable id: they are the
  // failed share of the requests that look unanswered.
  const std::size_t unparsed = unparseable;
  sc.failed += unparsed;
  sc.unanswered -= std::min<std::uint64_t>(sc.unanswered, unparsed);
  sc.reasons["unparseable"] += unparsed;
  std::vector<double> blat;
  std::size_t bulk_fail = 0;
  for (const auto& b : res.bulk) {
    ++bc.attempted;
    if (!b.done) {
      ++bc.unanswered;
      ++bulk_fail;
    } else if (b.ok) {
      ++bc.ok;
      if (b.measured) blat.push_back(b.latency_ms);
    } else if (b.why == "mismatch") {
      report.mismatch("bulk", "bulk operation output differs from reference");
      ++bulk_fail;
    } else {
      ++bc.failed;
      ++bc.reasons[b.why];
      ++bulk_fail;
    }
  }
  res.rung.small_tail_ms = lat.empty() ? 1e12 : quantile(lat, 0.90);
  res.rung.bulk_tail_ms = blat.empty() ? 0.0 : *std::max_element(blat.begin(), blat.end());
  res.rung.failures = (n_small - ok_small) + bulk_fail;
  res.rung.achieved_rps = completion_rate(done_s);
  res.rung.trend_ms = latency_trend_ms(res.small_samples);
  res.rung.backlog = backlog_growing(res.small_samples, kBacklogSlackMs,
                                     gave_up ? 1 : unanswered,
                                     res.rung.achieved_rps, small_rps);
  return res;
}

}  // namespace

void run_svc(const Options& opt, Report& report, Trace& trace) {
  State st;
  double generate_s = 0.0;
  std::vector<double> gen_walls;
  try {
    report.set("setup_s", median_setup_seconds([&] {
                 setup(st, opt, generate_s);
                 gen_walls.push_back(generate_s);
               }),
               "s");

    const auto warm_seconds = [](std::size_t k) { return k == 0 ? kBaseWarmSeconds : 0.0; };
    const auto rung_seconds = [&](std::size_t k) {
      const double min_samples = k == 0 ? kBaseMinSamples : kMinRungSamples;
      return std::max(kLadder[k].share * opt.seconds, min_samples / kLadder[k].rps);
    };
    const Limits limits{kSmallLimitMs, kBulkLimitMs};
    Trace off(false);
    std::uint64_t seq = 1000;
    double untraced_p50 = 0.0;
    if (trace.enabled()) {
      // An untraced base rung first: the base for trace_overhead_frac.
      const RungResult r =
          run_rung(st, opt, 0, kLadder[0].rps, warm_seconds(0), rung_seconds(0), seq, report, off, -1);
      seq += r.small.size();
      std::vector<double> l;
      for (const auto& s : r.small_samples) l.push_back(s.latency_ms);
      untraced_p50 = median(l);
    }
    std::vector<RungResult> rungs;
    std::vector<Rung> ladder;
    std::int64_t root = -1;
    {
      Trace::Scope span(trace, "workload.svc-mixed");
      root = span.id();
      for (std::size_t k = 0; k < std::size(kLadder); ++k) {
        rungs.push_back(run_rung(st, opt, static_cast<int>(k), kLadder[k].rps, warm_seconds(k),
                                 rung_seconds(k), seq, report, trace, root));
        seq += rungs.back().small.size();
        ladder.push_back(rungs.back().rung);
        if (!st.daemon || !rung_passes(ladder.back(), limits)) break;  // higher rungs only fail harder
      }
    }
    const fd::Daemon::Stats ds = st.daemon ? st.daemon->stats() : fd::Daemon::Stats{};
    stop_daemon(st);
    set_cpus(0, usable_cpus());

    // Base-rung latency distributions.
    const RungResult& base = rungs.front();
    std::vector<double> small_ok, encode, codec, queue, late;
    std::size_t orig = 0, comp = 0;
    for (const auto& o : base.small) {
      if (!o.measured || !o.answered || !o.ok) continue;
      small_ok.push_back(o.latency_ms);
      encode.push_back(o.encode_ms);
      codec.push_back(o.codec_s * 1e3);
      queue.push_back(o.queue_s * 1e3);
      late.push_back(o.send_late_ms);
    }
    for (const auto& r : rungs) {
      for (const auto& o : r.small) {
        if (o.answered && o.ok) {
          orig += o.original;
          comp += o.compressed;
        }
      }
    }
    std::vector<double> bulk_ok, upload_rate, bulk_upload_share;
    for (const auto& r : rungs) {
      for (const auto& b : r.bulk) {
        if (!b.measured || !b.ok) continue;
        bulk_ok.push_back(b.latency_ms);
        upload_rate.push_back(static_cast<double>(b.upload_bytes) / (1024.0 * 1024.0) / b.upload_s);
        bulk_upload_share.push_back(b.upload_s * 1e3 / b.latency_ms);
      }
    }
    const int best = highest_passing_rung(ladder, limits);
    const double max_rate = best >= 0 ? ladder[static_cast<std::size_t>(best)].achieved_rps : 0.0;
    const double small_mib = static_cast<double>(st.nyx.variables.front().field.bytes()) / (1024.0 * 1024.0);
    const double p50 = median(small_ok);
    const double pct = supported_percentile(small_ok.size());

    report.set("latency_p50_ms", p50, "ms");
    report.set("latency_tail_ms", quantile(small_ok, std::min(95.0, pct) / 100.0), "ms");
    report.set("throughput_mb_s", max_rate * small_mib, "MiB/s");
    report.set("ratio", comp ? static_cast<double>(orig) / static_cast<double>(comp) : 0.0, "x");

    std::string rung_rows = "[";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const Rung& r = ladder[i];
      rung_rows += (i ? ", " : "") + std::string("{\"offered_rps\": ") + std::to_string(r.offered_rps) +
                   ", \"achieved_rps\": " + std::to_string(r.achieved_rps) +
                   ", \"small_tail_ms\": " + std::to_string(r.small_tail_ms) +
                   ", \"bulk_max_ms\": " + std::to_string(r.bulk_tail_ms) +
                   ", \"failures\": " + std::to_string(r.failures) +
                   ", \"trend_ms\": " + std::to_string(r.trend_ms) +
                   ", \"backlog\": " + (r.backlog ? "true" : "false") +
                   ", \"passes\": " + (rung_passes(r, limits) ? "true" : "false") + "}";
    }
    rung_rows += "]";
    report.notes["workload_metrics"] =
        "{\"small_p50_ms\": " + std::to_string(p50) +
        ", \"small_p95_ms\": " + std::to_string(quantile(small_ok, 0.95)) +
        ", \"small_p75_ms\": " + std::to_string(quantile(small_ok, 0.75)) +
        ", \"small_p90_ms\": " + std::to_string(quantile(small_ok, 0.90)) +
        ", \"small_samples\": " + std::to_string(small_ok.size()) +
        ", \"small_supported_percentile\": " + std::to_string(pct) +
        ", \"bulk_p50_ms\": " + std::to_string(median(bulk_ok)) +
        ", \"bulk_p90_ms\": " + std::to_string(quantile(bulk_ok, 0.9)) +
        ", \"bulk_samples\": " + std::to_string(bulk_ok.size()) +
        ", \"bulk_supported_percentile\": " + std::to_string(supported_percentile(bulk_ok.size())) +
        ", \"max_rate_rps\": " + std::to_string(max_rate) +
        ", \"gen_late_ms_p50\": " + std::to_string(median(late)) +
        ", \"gen_late_ms_max\": " + std::to_string(late.empty() ? 0.0 : *std::max_element(late.begin(), late.end())) +
        ", \"limits\": {\"small_tail_ms\": " + std::to_string(kSmallLimitMs) +
        ", \"bulk_max_ms\": " + std::to_string(kBulkLimitMs) + "}, \"rungs\": " + rung_rows + "}";
    report.notes["inputs"] =
        "{\"small_field_bytes\": " + std::to_string(st.nyx.variables.front().field.bytes()) +
        ", \"bulk_field_bytes\": " + std::to_string(st.bulk.bytes()) + "}";

    if (trace.enabled()) {
      cosmo::ThreadPool pool(4);
      probe_layers(st.nyx.variables.front().field, &pool, opt.seed, report, trace);
      const double enc = median(encode), cod = median(codec), q = median(queue);
      report.layer("foresightd.client_encode_share", enc / p50, "ratio");
      report.layer("foresightd.codec_share", cod / p50, "ratio");
      report.layer("foresightd.queue_wait_share", q / p50, "ratio");
      report.layer("foresightd.server_other_share", std::max(0.0, p50 - enc - cod - q) / p50, "ratio");
      report.layer("foresightd.upload_share", median(bulk_upload_share), "ratio");
      report.layer("foresightd.upload_mb_s", median(upload_rate), "MiB/s");
      report.layer("foresightd.admitted", static_cast<double>(ds.admitted), "count");
      report.layer("foresightd.rejected", static_cast<double>(ds.rejected), "count");
      report.layer("foresightd.queue_high_water", static_cast<double>(ds.queue_high_water), "count");
      const double lookups = static_cast<double>(ds.dataset_cache.hits + ds.dataset_cache.misses);
      report.layer("foresightd.dataset_cache_hit_frac",
                   lookups > 0 ? static_cast<double>(ds.dataset_cache.hits) / lookups : 0.0, "ratio");
      report.layer("foresightd.gen_late_share", median(late) / p50, "ratio");
      zero_workload_layers(report);
      report.layer("cosmo.generate_s", median(gen_walls), "s");
      report.layer("unattributed_frac", unattributed_frac(trace, root), "ratio");
      report.layer("trace_overhead_frac", untraced_p50 > 0 ? p50 / untraced_p50 - 1.0 : 0.0, "ratio");
    }
  } catch (...) {
    stop_daemon(st);
    set_cpus(0, usable_cpus());
    throw;
  }
}

}  // namespace perfbench
