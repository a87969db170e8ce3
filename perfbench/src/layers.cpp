#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "analysis/power_spectrum.hpp"
#include "analysis/stats.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/telemetry.hpp"
#include "fft/fft.hpp"
#include "foresight/compressor.hpp"
#include "foresightd/protocol.hpp"
#include "fz/fz.hpp"
#include "gpu/sim.hpp"
#include "gpu/specs.hpp"
#include "io/crc32.hpp"
#include "json/json.hpp"
#include "stats.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace perfbench {

using cosmo::Field;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Repeats a call until ~8 MiB of input went through it (at least once) and
/// returns the median wall seconds of one call. Small fields get several
/// repetitions so the rate is not one noisy sample.
double median_call(Trace& trace, const char* span, std::size_t input_bytes,
                   const std::function<void()>& fn) {
  const std::size_t reps =
      std::clamp<std::size_t>((8u << 20) / std::max<std::size_t>(input_bytes, 1), 1, 5);
  std::vector<double> walls;
  for (std::size_t i = 0; i < reps; ++i) {
    Trace::Scope s(trace, span);
    walls.push_back(timed(fn));
  }
  return median(walls);
}

/// One layer round-trip check: an operation of class "layers".
void check(Report& report, bool ok, const std::string& what) {
  ClassCounts& c = report.classes["layers"];
  ++c.attempted;
  if (ok) {
    ++c.ok;
  } else {
    report.mismatch("layers", what);
  }
}

double mib_s(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / kMiB / seconds : 0.0;
}

/// The SZ pipeline's quantization codes for \p field at bound \p eb: a
/// whole-field 3-D Lorenzo prediction on reconstructed values.
std::vector<std::uint32_t> sz_codes(const Field& field, double eb) {
  const cosmo::Dims& d = field.dims;
  cosmo::sz::BlockRange blk{0, d.nx, 0, d.ny, 0, d.nz};
  const cosmo::sz::Quantizer q(eb);
  std::vector<float> recon(field.data.size(), 0.0f);
  std::vector<std::uint32_t> codes(field.data.size());
  for (std::size_t z = 0; z < d.nz; ++z) {
    for (std::size_t y = 0; y < d.ny; ++y) {
      for (std::size_t x = 0; x < d.nx; ++x) {
        const std::size_t i = d.index(x, y, z);
        const float pred = cosmo::sz::lorenzo_predict(recon, d, blk, x, y, z);
        const auto r = q.quantize(field.data[i], pred);
        codes[i] = r.code;
        recon[i] = r.code ? r.reconstructed : field.data[i];
      }
    }
  }
  return codes;
}

}  // namespace

cosmo::foresight::CompressorConfig primary_config(const std::string& codec,
                                                  const Field& field) {
  const auto& caps = cosmo::foresight::CodecRegistry::instance().capabilities(codec);
  const std::string mode =
      caps.default_sweep.empty() ? caps.modes.front() : caps.default_sweep.front().mode;
  const auto [lo, hi] = cosmo::value_range(field.data);
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  if (mode == "abs" || mode == "accuracy") return {mode, 1e-3 * (range > 0 ? range : 1.0)};
  if (mode == "rate") return {mode, 8.0};
  if (mode == "pw_rel") return {mode, 1e-2};
  return {mode, 16.0};
}

std::uint32_t values_crc(const std::vector<float>& values) {
  return cosmo::crc32(values.data(), values.size() * sizeof(float));
}

void probe_layers(const Field& field, cosmo::ThreadPool* pool, std::uint64_t seed,
                  Report& report, Trace& trace) {
  namespace fs = cosmo::foresight;
  const std::size_t bytes = field.bytes();
  const auto [lo, hi] = cosmo::value_range(field.data);
  const double eb = 1e-3 * (static_cast<double>(hi) - static_cast<double>(lo));

  // --- sz / zfp / fz kernels, direct calls on the field -------------------
  cosmo::sz::Params szp;
  szp.abs_error_bound = eb;
  cosmo::zfp::Params zfpp;
  zfpp.mode = cosmo::zfp::Mode::kFixedRate;
  zfpp.rate = 8.0;
  cosmo::fz::Params fzp;
  fzp.abs_error_bound = eb;
  std::vector<std::uint8_t> sz_bytes, zfp_bytes, fz_bytes;
  std::vector<float> sz_recon, out;
  const double sz_c = median_call(trace, "sz.compress", bytes, [&] {
    sz_bytes = cosmo::sz::compress(field.data, field.dims, szp, nullptr, pool);
  });
  const double sz_d = median_call(trace, "sz.decompress", bytes, [&] {
    sz_recon = cosmo::sz::decompress(sz_bytes, nullptr, pool);
  });
  const double zfp_c = median_call(trace, "zfp.compress", bytes, [&] {
    zfp_bytes = cosmo::zfp::compress(field.data, field.dims, zfpp, nullptr, pool);
  });
  const double zfp_d = median_call(trace, "zfp.decompress", bytes, [&] {
    out = cosmo::zfp::decompress(zfp_bytes, nullptr, pool);
  });
  const double fz_c = median_call(trace, "fz.compress", bytes, [&] {
    fz_bytes = cosmo::fz::compress(field.data, field.dims, fzp, nullptr, pool);
  });
  const double fz_d = median_call(trace, "fz.decompress", bytes, [&] {
    out = cosmo::fz::decompress(fz_bytes, nullptr, pool);
  });
  report.layer("sz.compress_mb_s", mib_s(bytes, sz_c), "MiB/s");
  report.layer("sz.decompress_mb_s", mib_s(bytes, sz_d), "MiB/s");
  report.layer("zfp.compress_mb_s", mib_s(bytes, zfp_c), "MiB/s");
  report.layer("zfp.decompress_mb_s", mib_s(bytes, zfp_d), "MiB/s");
  report.layer("fz.compress_mb_s", mib_s(bytes, fz_c), "MiB/s");
  report.layer("fz.decompress_mb_s", mib_s(bytes, fz_d), "MiB/s");

  // --- codec (huffman, lzss) on the SZ quantization codes; io crc32 -------
  std::vector<std::uint32_t> codes;
  {
    Trace::Scope s(trace, "sz.quantize_codes");
    codes = sz_codes(field, eb);
  }
  const std::size_t code_bytes = codes.size() * sizeof(std::uint32_t);
  std::vector<std::uint8_t> huff, lz, unlz;
  std::vector<std::uint32_t> decoded;
  const double he = median_call(trace, "codec.huffman_encode", code_bytes,
                                [&] { huff = cosmo::huffman_encode(codes); });
  const double hd = median_call(trace, "codec.huffman_decode", code_bytes,
                                [&] { decoded = cosmo::huffman_decode(huff); });
  const double le = median_call(trace, "codec.lzss_encode", huff.size(),
                                [&] { lz = cosmo::lzss_encode(huff); });
  const double ld = median_call(trace, "codec.lzss_decode", huff.size(),
                                [&] { unlz = cosmo::lzss_decode(lz); });
  std::uint32_t crc = 0;
  const double cr = median_call(trace, "io.crc32", bytes,
                                [&] { crc = cosmo::crc32(field.data.data(), bytes); });
  check(report, decoded == codes, "huffman round trip differs");
  check(report, unlz == huff, "lzss round trip differs");
  check(report, crc == values_crc(field.data), "crc32 not repeatable");
  report.layer("codec.huffman_encode_mb_s", mib_s(code_bytes, he), "MiB/s");
  report.layer("codec.huffman_decode_mb_s", mib_s(code_bytes, hd), "MiB/s");
  report.layer("codec.lzss_encode_mb_s", mib_s(huff.size(), le), "MiB/s");
  report.layer("codec.lzss_decode_mb_s", mib_s(huff.size(), ld), "MiB/s");
  report.layer("io.crc32_mb_s", mib_s(bytes, cr), "MiB/s");

  // --- foresight session layer: session call minus the direct call --------
  double session_overhead = 0.0;
  {
    const std::pair<const char*, double> host[] = {
        {"sz-cpu", sz_c + sz_d}, {"zfp-cpu", zfp_c + zfp_d}, {"fz-cpu", fz_c + fz_d}};
    const std::vector<std::uint8_t>* direct[] = {&sz_bytes, &zfp_bytes, &fz_bytes};
    for (std::size_t k = 0; k < 3; ++k) {
      auto comp = fs::make_compressor(host[k].first, nullptr);
      auto session = comp->open_session(nullptr, pool);
      const fs::CompressorConfig cfg = primary_config(host[k].first, field);
      fs::CompressResult c;
      fs::DecompressResult d;
      session->compress(field, cfg, c);  // warm the arena
      const double wc = median_call(trace, "foresight.session_compress", bytes,
                                    [&] { session->compress(field, cfg, c); });
      const double wd = median_call(trace, "foresight.session_decompress", bytes,
                                    [&] { session->decompress(c, d); });
      check(report, c.bytes == *direct[k],
            std::string(host[k].first) + " session stream differs from the direct call");
      session_overhead += wc + wd - host[k].second;
    }
  }
  report.layer("foresight.session_overhead_s", session_overhead, "s");
  // Process-wide peak over every ScratchArena (sessions and per-worker
  // container arenas), as the library's own gauge records it.
  report.layer("foresight.arena_high_water_bytes",
               static_cast<double>(cosmo::telemetry::MetricsRegistry::instance()
                                       .gauge("arena.high_water_bytes")
                                       .max()),
               "bytes");

  // --- gpu: simulated-device codec wall minus its 1-thread host twin ------
  {
    cosmo::gpu::GpuSimulator sim(cosmo::gpu::find_device("Tesla V100"),
                                 derive_seed(seed, 77));
    const std::pair<const char*, const char*> twins[] = {
        {"gpu-sz", "sz-cpu"}, {"cuzfp", "zfp-cpu"}, {"fz-gpu", "fz-cpu"}};
    double overhead = 0.0;
    cosmo::TimingBreakdown modeled;
    for (const auto& [dev, host] : twins) {
      if (!fs::CodecRegistry::instance().contains(dev)) continue;
      auto dcomp = fs::make_compressor(dev, &sim);
      auto hcomp = fs::make_compressor(host, nullptr);
      auto ds = dcomp->open_session();
      auto hs = hcomp->open_session();
      const fs::CompressorConfig cfg = primary_config(dev, field);
      fs::CompressResult dc, hc;
      fs::DecompressResult dd, hd2;
      double wall_dev = 0.0, wall_host = 0.0;
      {
        Trace::Scope s(trace, "gpu.device_codec");
        wall_dev += timed([&] { ds->compress(field, cfg, dc); });
        wall_dev += timed([&] { ds->decompress(dc, dd); });
      }
      {
        Trace::Scope s(trace, "gpu.host_twin");
        wall_host += timed([&] { hs->compress(field, cfg, hc); });
        wall_host += timed([&] { hs->decompress(hc, hd2); });
      }
      overhead += wall_dev - wall_host;
      for (const auto* t : {&dc.telemetry, &dd.telemetry}) {
        if (!t->has_gpu_timing) continue;
        modeled.init += t->gpu_timing.init;
        modeled.kernel += t->gpu_timing.kernel;
        modeled.memcpy += t->gpu_timing.memcpy;
        modeled.free += t->gpu_timing.free;
      }
    }
    report.layer("gpu.device_overhead_s", overhead, "s");
    report.layer("gpu.modeled_init_s", modeled.init, "s");
    report.layer("gpu.modeled_kernel_s", modeled.kernel, "s");
    report.layer("gpu.modeled_memcpy_s", modeled.memcpy, "s");
    report.layer("gpu.modeled_free_s", modeled.free, "s");
  }

  // --- analysis / fft on the field and its SZ reconstruction --------------
  std::vector<cosmo::analysis::PkBin> pk;
  report.layer("analysis.compare_s",
               median_call(trace, "analysis.compare", bytes,
                           [&] { (void)cosmo::analysis::compare(field.data, sz_recon); }),
               "s");
  report.layer("analysis.power_spectrum_s",
               median_call(trace, "analysis.power_spectrum", bytes,
                           [&] {
                             pk = cosmo::analysis::power_spectrum(field.data, field.dims, 0,
                                                                  pool);
                           }),
               "s");
  report.layer("analysis.pk_ratio_s",
               median_call(trace, "analysis.pk_ratio", bytes,
                           [&] {
                             (void)cosmo::analysis::pk_ratio(pk, sz_recon, field.dims, 0.5,
                                                             pool);
                           }),
               "s");
  report.layer("fft.fft_3d_real_s",
               median_call(trace, "fft.fft_3d_real", bytes,
                           [&] { (void)cosmo::fft_3d_real(field.data, field.dims, pool); }),
               "s");

  // --- foresightd framing and json on an upload frame of the field --------
  {
    namespace fd = cosmo::foresightd;
    const std::size_t n = std::min<std::size_t>(bytes, fd::kDefaultChunkBytes);
    const auto* raw = reinterpret_cast<const std::uint8_t*>(field.data.data());
    std::string b64;
    std::vector<std::uint8_t> unb64;
    const double be = median_call(trace, "foresightd.base64_encode", n,
                                  [&] { b64 = fd::base64_encode(raw, n); });
    const double bd = median_call(trace, "foresightd.base64_decode", n,
                                  [&] { unb64 = fd::base64_decode(b64); });
    check(report, unb64.size() == n && std::memcmp(unb64.data(), raw, n) == 0,
          "base64 round trip differs");
    fd::ChunkMessage chunk;
    chunk.type = fd::ChunkType::kData;
    chunk.transfer = "probe";
    chunk.crc32 = cosmo::crc32(raw, n);
    chunk.payload.assign(raw, raw + n);
    const cosmo::json::Value frame_json = chunk.to_json();
    std::string text;
    const double js = median_call(trace, "json.serialize", n, [&] { text = frame_json.dump(); });
    cosmo::json::Value parsed;
    const double jp = median_call(trace, "json.parse", n,
                                  [&] { parsed = cosmo::json::parse(text); });
    const std::vector<std::uint8_t> frame = fd::encode_frame(frame_json);
    std::optional<cosmo::json::Value> got;
    const double fp = median_call(trace, "foresightd.frame_parse", n, [&] {
      fd::FrameParser parser;
      parser.feed(frame.data(), frame.size());
      got = parser.next();
    });
    check(report, got && fd::ChunkMessage::parse(*got).payload == chunk.payload,
          "frame round trip differs");
    report.layer("foresightd.base64_encode_mb_s", mib_s(n, be), "MiB/s");
    report.layer("foresightd.base64_decode_mb_s", mib_s(n, bd), "MiB/s");
    report.layer("json.serialize_mb_s", mib_s(text.size(), js), "MiB/s");
    report.layer("json.parse_mb_s", mib_s(text.size(), jp), "MiB/s");
    report.layer("foresightd.frame_parse_mb_s", mib_s(frame.size(), fp), "MiB/s");
  }
}

void zero_workload_layers(Report& report) {
  static const char* const kCounts[] = {"foresight.optimizer_full_evals",
                                        "foresight.optimizer_baseline_cache_hits",
                                        "foresightd.admitted", "foresightd.rejected",
                                        "foresightd.queue_high_water"};
  static const char* const kShares[] = {
      "foresight.eval_busy_frac",          "analysis.fof_share",
      "analysis.halo_compare_share",       "foresightd.client_encode_share",
      "foresightd.codec_share",            "foresightd.queue_wait_share",
      "foresightd.upload_share",           "foresightd.server_other_share",
      "foresightd.dataset_cache_hit_frac", "foresightd.gen_late_share"};
  for (const char* n : kCounts) {
    if (!report.per_layer.count(n)) report.layer(n, 0.0, "count");
  }
  for (const char* n : kShares) {
    if (!report.per_layer.count(n)) report.layer(n, 0.0, "ratio");
  }
  if (!report.per_layer.count("foresightd.upload_mb_s")) {
    report.layer("foresightd.upload_mb_s", 0.0, "MiB/s");
  }
}

double unattributed_frac(const Trace& trace, std::int64_t root) {
  const double dur = trace.duration_seconds(root);
  return dur > 0 ? trace.self_seconds(root) / dur : 0.0;
}

}  // namespace perfbench
