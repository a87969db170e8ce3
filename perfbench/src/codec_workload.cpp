// codec-nyx128: CodecSession compress + decompress over every registered
// codec and all six Nyx 128^3 fields, one closed-loop caller. Each pass runs
// every (field, codec) pair once: one pass on plain 1-thread sessions, then
// passes on 4-thread sessions. It exercises the codec kernels and the
// session layer only.
#include <cmath>
#include <memory>

#include "cosmo/nyx_synth.hpp"
#include "foresight/compressor.hpp"
#include "gpu/sim.hpp"
#include "gpu/specs.hpp"
#include "io/crc32.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fs = cosmo::foresight;

namespace {

struct Codec {
  std::string name;
  std::unique_ptr<fs::Compressor> compressor;
  std::unique_ptr<fs::CodecSession> s4;  ///< 4-thread intra-field session
  std::unique_ptr<fs::CodecSession> s1;  ///< plain 1-thread session
};

struct Reference {
  std::uint32_t crc = 0;
  std::size_t size = 0;
  bool abs_mode = false;
  double bound = 0.0;
  bool have_values = false;
  std::uint32_t values_crc = 0;  ///< first decompression, for later passes
};

struct Pass {
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> call_ms;  ///< every compress and decompress call
};

struct State {
  cosmo::io::Container nyx;
  std::unique_ptr<cosmo::ThreadPool> pool;
  std::unique_ptr<cosmo::gpu::GpuSimulator> sim;
  std::vector<Codec> codecs;
  std::vector<std::vector<fs::CompressorConfig>> configs;  // [codec][field]
};

void setup(State& st, const Options& opt, double& generate_s) {
  st = State{};
  cosmo::NyxConfig cfg;
  cfg.dim = opt.smoke ? 32 : 128;
  cfg.seed = derive_seed(opt.seed, 1);
  generate_s = timed([&] { st.nyx = cosmo::generate_nyx(cfg); });
  st.pool = std::make_unique<cosmo::ThreadPool>(4);
  st.sim = std::make_unique<cosmo::gpu::GpuSimulator>(cosmo::gpu::find_device("Tesla V100"),
                                                      derive_seed(opt.seed, 2));
  const cosmo::Field& f0 = st.nyx.variables.front().field;
  cosmo::Dims wd = f0.dims;
  wd.nz = std::max<std::size_t>(1, wd.nz / 4);
  const cosmo::Field warm(f0.name, wd,
                          std::vector<float>(f0.data.begin(), f0.data.begin() + wd.count()));
  for (const std::string& name : fs::available_compressors()) {
    Codec c;
    c.name = name;
    c.compressor = fs::make_compressor(name, st.sim.get());
    c.s4 = c.compressor->open_session(nullptr, st.pool.get());
    c.s1 = c.compressor->open_session(nullptr, nullptr);
    std::vector<fs::CompressorConfig> per_field;
    for (const auto& v : st.nyx.variables) per_field.push_back(primary_config(name, v.field));
    st.configs.push_back(std::move(per_field));
    // Warm-up: one call pair per session on a quarter-depth slab of the
    // first field, so thread pools, lazy tables and arenas exist.
    for (auto* s : {c.s4.get(), c.s1.get()}) {
      (void)s->decompress(s->compress(warm, st.configs.back().front()));
    }
    st.codecs.push_back(std::move(c));
  }
}

double max_abs_error(const std::vector<float>& a, const std::vector<float>& b) {
  double m = a.size() == b.size() ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

Pass run_pass(State& st, bool four_threads, std::vector<std::vector<Reference>>& refs,
              Report& report, Trace& trace, std::uint64_t& op) {
  Pass p;
  fs::CompressResult c;
  fs::DecompressResult d;
  const auto t0 = Clock::now();
  for (std::size_t f = 0; f < st.nyx.variables.size(); ++f) {
    const cosmo::Field& field = st.nyx.variables[f].field;
    for (std::size_t k = 0; k < st.codecs.size(); ++k) {
      Codec& codec = st.codecs[k];
      fs::CodecSession& s = four_threads ? *codec.s4 : *codec.s1;
      ClassCounts& cls = report.classes["codec_call"];
      cls.attempted += 2;
      ++op;
      double wc = 0.0, wd = 0.0;
      {
        Trace::Scope span(trace, "foresight.session_compress", op);
        wc = timed([&] { s.compress(field, st.configs[k][f], c); });
      }
      {
        Trace::Scope span(trace, "foresight.session_decompress", op);
        wd = timed([&] { s.decompress(c, d); });
      }
      p.compress_s += wc;
      p.decompress_s += wd;
      p.call_ms.push_back(wc * 1e3);
      p.call_ms.push_back(wd * 1e3);

      Reference& ref = refs[k][f];
      std::string wrong;
      if (cosmo::crc32(c.bytes.data(), c.bytes.size()) != ref.crc || c.bytes.size() != ref.size) {
        wrong = "stream differs from the single-shot reference";
      }
      const std::uint32_t vcrc = values_crc(d.values);
      if (!ref.have_values) {
        ref.have_values = true;
        ref.values_crc = vcrc;
        if (ref.abs_mode) {
          const double err = max_abs_error(field.data, d.values);
          if (!(err <= ref.bound)) {
            wrong = "max error " + std::to_string(err) + " exceeds abs bound " +
                    std::to_string(ref.bound);
          }
        }
      } else if (vcrc != ref.values_crc) {
        wrong = "reconstruction differs between passes";
      }
      if (wrong.empty()) {
        cls.ok += 2;
      } else {
        report.mismatch("codec_call",
                        codec.name + "/" + field.name + (four_threads ? "/4t: " : "/1t: ") + wrong,
                        2);
      }
    }
  }
  p.wall_s = seconds_since(t0);
  return p;
}

}  // namespace

void run_codec(const Options& opt, Report& report, Trace& trace) {
  State st;
  double generate_s = 0.0;
  std::vector<double> gen_walls;
  const double setup_s = median_setup_seconds([&] {
    setup(st, opt, generate_s);
    gen_walls.push_back(generate_s);
  });
  report.set("setup_s", setup_s, "s");

  // Single-shot references: a fresh session per codec, one call per field.
  std::vector<std::vector<Reference>> refs(st.codecs.size());
  std::size_t original = 0;
  for (std::size_t k = 0; k < st.codecs.size(); ++k) {
    auto fresh = st.codecs[k].compressor->open_session(nullptr, st.pool.get());
    for (std::size_t f = 0; f < st.nyx.variables.size(); ++f) {
      const cosmo::Field& field = st.nyx.variables[f].field;
      const fs::CompressResult r = fresh->compress(field, st.configs[k][f]);
      Reference ref;
      ref.crc = cosmo::crc32(r.bytes.data(), r.bytes.size());
      ref.size = r.bytes.size();
      ref.abs_mode = st.configs[k][f].mode == "abs";
      ref.bound = st.configs[k][f].value;
      refs[k].push_back(ref);
      original += field.bytes();
    }
  }
  std::size_t compressed = 0;
  for (const auto& row : refs) {
    for (const auto& r : row) compressed += r.size;
  }

  // Measured phase: one 1-thread pass, then 4-thread passes until the run
  // time is spent (at least two, so the call-latency p90 has >= 10 samples
  // beyond it).
  Trace off(false);
  std::uint64_t op = 0;
  std::vector<Pass> p4, p1;
  double untraced_pass = 0.0;
  if (trace.enabled()) untraced_pass = run_pass(st, true, refs, report, off, op).wall_s;
  const auto t0 = Clock::now();
  std::int64_t root = -1;
  {
    Trace::Scope span(trace, "workload.codec-nyx128");
    root = span.id();
    p1.push_back(run_pass(st, false, refs, report, trace, op));
    while (p4.size() < 2 || seconds_since(t0) < opt.seconds) {
      p4.push_back(run_pass(st, true, refs, report, trace, op));
    }
  }

  const double mib = static_cast<double>(original) / (1024.0 * 1024.0);
  std::vector<double> c4, d4, c1, d1, w4, calls;
  for (const auto& p : p4) {
    c4.push_back(mib / p.compress_s);
    d4.push_back(mib / p.decompress_s);
    w4.push_back(p.wall_s);
    calls.insert(calls.end(), p.call_ms.begin(), p.call_ms.end());
  }
  for (const auto& p : p1) {
    c1.push_back(mib / p.compress_s);
    d1.push_back(mib / p.decompress_s);
  }
  const double ratio = static_cast<double>(original) / static_cast<double>(compressed);

  // The end-to-end metrics every workload reports under shared names.
  report.set("latency_p50_ms", median(calls), "ms");
  report.set("latency_tail_ms", quantile(calls, 0.90), "ms");
  std::vector<double> both4;
  for (const auto& p : p4) both4.push_back(2.0 * mib / (p.compress_s + p.decompress_s));
  report.set("throughput_mb_s", median(both4), "MiB/s");
  report.set("ratio", ratio, "x");

  // This workload's own figures, printed in the context line.
  report.notes["workload_metrics"] =
      "{\"compress_mb_s\": " + std::to_string(median(c4)) +
      ", \"decompress_mb_s\": " + std::to_string(median(d4)) +
      ", \"compress_mb_s_1t\": " + std::to_string(median(c1)) +
      ", \"decompress_mb_s_1t\": " + std::to_string(median(d1)) +
      ", \"ratio\": " + std::to_string(ratio) + ", \"passes_4t\": " + std::to_string(p4.size()) +
      ", \"passes_1t\": " + std::to_string(p1.size()) +
      ", \"call_samples\": " + std::to_string(calls.size()) + ", \"tail_percentile\": 90}";
  report.notes["inputs"] =
      "{\"fields\": " + std::to_string(st.nyx.variables.size()) +
      ", \"codecs\": " + std::to_string(st.codecs.size()) +
      ", \"field_bytes\": " + std::to_string(st.nyx.variables.front().field.bytes()) +
      ", \"total_input_bytes\": " + std::to_string(original) +
      ", \"computed_bytes_moved_per_pass\": " + std::to_string(2 * original + 2 * compressed) +
      ", \"bytes_moved_note\": \"computed from array sizes (inputs read + streams written on "
      "compress, streams read + values written on decompress), not measured\"}";

  if (trace.enabled()) {
    const cosmo::Field& probe = st.nyx.variables.front().field;
    probe_layers(probe, st.pool.get(), opt.seed, report, trace);
    zero_workload_layers(report);
    report.layer("cosmo.generate_s", median(gen_walls), "s");
    report.layer("unattributed_frac", unattributed_frac(trace, root), "ratio");
    report.layer("trace_overhead_frac",
                 untraced_pass > 0 ? median(w4) / untraced_pass - 1.0 : 0.0, "ratio");
  }
}

}  // namespace perfbench
