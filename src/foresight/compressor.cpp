#include "foresight/compressor.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "common/thread_pool.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/chunked.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::foresight {

std::string CompressorConfig::label() const {
  return strprintf("%s=%g", mode.c_str(), value);
}

namespace {

/// Transient device faults are retried up to this many attempts, sleeping
/// the shared backoff schedule (common/backoff.hpp, default policy: 0.5 ms
/// doubling to a 50 ms cap, half-range jitter) between them.
constexpr int kDeviceAttempts = 3;
constexpr backoff::Policy kDeviceBackoff{};

/// Shortest round-trip text for a config value ("4294967297", "1e-30", "nan").
std::string value_text(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// Rejects config values no codec can honor, before any codec casts them:
/// every mode needs a finite, positive value, and a precision is a whole
/// bit count (zfp_params_for casts it to unsigned).
void require_valid_value(const CodecCapabilities& caps, const CompressorConfig& config) {
  const double v = config.value;
  if (!std::isfinite(v) || v <= 0.0) {
    throw InvalidArgument(caps.name + ": " + config.mode + " value " + value_text(v) +
                          " must be finite and positive");
  }
  if (config.mode == "precision" &&
      (v != std::floor(v) || v > std::numeric_limits<unsigned>::max())) {
    throw InvalidArgument(caps.name + ": precision value " + value_text(v) +
                          " must be a whole number of bits, at most " +
                          std::to_string(std::numeric_limits<unsigned>::max()));
  }
}

/// Truncates a reconstruction back to the pre-padding length recorded at
/// compression time (no-op when the length is unknown or already right).
void drop_padding(const CompressResult& compressed, std::vector<float>& values) {
  if (compressed.original_values != 0) values.resize(compressed.original_values);
}

double stream_bitrate(std::size_t compressed_bytes, std::size_t values) {
  return static_cast<double>(compressed_bytes) * 8.0 / static_cast<double>(values);
}

/// The modeled device step of one stage. \p model runs the simulator's
/// timing model on the calling thread, after the (possibly pooled) host
/// encode/decode has joined, so its jitter draws follow the call order
/// alone and never the session's thread count. A TransientError is retried
/// with seeded-jitter backoff (each retry sequence claims its own
/// decorrelation salt on the first fault, so concurrent jobs cannot herd)
/// and propagates once the attempts are spent. Device OOM degrades the
/// stage to its host codec: the output the host codec already produced is
/// kept (bit-identical by construction, for any pool) and \p host_seconds,
/// the measured wall time of that pooled host run, replaces the modeled
/// breakdown.
template <typename Model>
void model_device_stage(StageTelemetry& telemetry, double host_seconds, Model&& model) {
  std::uint64_t salt = 0;
  bool salted = false;
  try {
    for (int attempt = 1;; ++attempt) {
      try {
        telemetry.set_device(model(), attempt);
        return;
      } catch (const TransientError&) {
        telemetry::MetricsRegistry::instance().counter("gpu.transient_retries").add();
        if (attempt >= kDeviceAttempts) throw;
        if (!salted) {
          salt = backoff::next_sequence_salt();
          salted = true;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff::delay_seconds(kDeviceBackoff, attempt, salt)));
      }
    }
  } catch (const OutOfMemoryError&) {
    telemetry.mark_cpu_fallback();
    telemetry.seconds = host_seconds;
    telemetry::MetricsRegistry::instance().counter("codec.cpu_fallbacks").add();
  }
}

}  // namespace

CodecSession::CodecSession(const CodecRegistry::Entry& codec, gpu::GpuSimulator* sim,
                           ScratchArena* arena, ThreadPool* pool)
    : codec_(codec),
      sim_(codec.caps.needs_device ? sim : nullptr),
      owned_(arena ? nullptr : std::make_unique<ScratchArena>()),
      arena_(arena ? arena : owned_.get()),
      pool_(pool) {}

void CodecSession::compress(const Field& field, const CompressorConfig& config,
                            CompressResult& out) {
  TRACE_SPAN(codec_.compress_span.c_str());
  const CodecCapabilities& caps = codec_.caps;
  caps.require_mode(config.mode);
  require_valid_value(caps, config);
  if (sim_ != nullptr) {
    out.telemetry.reset_gpu();
  } else {
    out.telemetry.reset_cpu();
  }
  out.throughput_reportable = caps.throughput_reportable;
  out.original_values = field.data.size();

  // "the compression quality on the 1-D data is not as good as that on the
  // converted 3-D data" — convert like the paper does.
  std::optional<ShapeAdapter> shaped;
  if (caps.reshape_1d) shaped.emplace(field, arena());
  const std::span<const float> values =
      shaped ? shaped->values() : std::span<const float>(field.data);
  const Dims& dims = shaped ? shaped->dims() : field.dims;

  if (sim_ == nullptr) {
    Timer timer;
    codec_.host.encode(values, dims, config, pool_, out.bytes);
    out.telemetry.seconds = timer.seconds();
    return;
  }
  TRACE_SPAN("gpu.device.compress");
  Timer timer;
  codec_.host.encode(values, dims, config, pool_, out.bytes);
  const double host_seconds = timer.seconds();
  // The kernel runs at the requested bitrate in fixed-rate mode; otherwise
  // at the achieved one, known only after the encoder ran.
  const double bitrate = config.mode == "rate" ? config.value
                                               : stream_bitrate(out.bytes.size(), values.size());
  const double kernel_gbps = sim_->kernel_rates(caps.kernel_profile, bitrate).compress_gbps;
  model_device_stage(out.telemetry, host_seconds, [&] {
    return sim_->model_compression(values.size() * sizeof(float), out.bytes.size(),
                                   kernel_gbps);
  });
  // A fallback time describes the host, not the device.
  if (out.telemetry.cpu_fallback) out.throughput_reportable = false;
}

void CodecSession::decompress(const CompressResult& compressed, DecompressResult& out) {
  TRACE_SPAN(codec_.decompress_span.c_str());
  if (sim_ == nullptr) {
    out.telemetry.reset_cpu();
    Timer timer;
    codec_.host.decode(compressed.bytes, pool_, out.values);
    drop_padding(compressed, out.values);
    out.telemetry.seconds = timer.seconds();
    return;
  }
  out.telemetry.reset_gpu();
  TRACE_SPAN("gpu.device.decompress");
  Timer timer;
  codec_.host.decode(compressed.bytes, pool_, out.values);
  const double host_seconds = timer.seconds();
  // The device produces the padded reshape, so the model sees its size.
  const std::size_t decoded = out.values.size();
  const double kernel_gbps =
      sim_->kernel_rates(codec_.caps.kernel_profile,
                         stream_bitrate(compressed.bytes.size(), decoded))
          .decompress_gbps;
  model_device_stage(out.telemetry, host_seconds, [&] {
    return sim_->model_decompression(decoded * sizeof(float), compressed.bytes.size(),
                                     kernel_gbps);
  });
  drop_padding(compressed, out.values);
}

CompressResult CodecSession::compress(const Field& field, const CompressorConfig& config) {
  CompressResult out;
  compress(field, config, out);
  return out;
}

DecompressResult CodecSession::decompress(const CompressResult& compressed) {
  DecompressResult out;
  decompress(compressed, out);
  return out;
}

std::unique_ptr<CodecSession> Compressor::open_session(ScratchArena* arena,
                                                       ThreadPool* pool) const {
  TRACE_SPAN("session.open");
  return std::unique_ptr<CodecSession>(new CodecSession(codec_, sim_, arena, pool));
}

namespace {

/// SZ family: an abs bound directly, pw_rel through the log transform
/// (sz/pwrel.hpp). The stream's magic tells the decoder which one it is.
void encode_sz(std::span<const float> values, const Dims& dims,
               const CompressorConfig& config, ThreadPool* pool,
               std::vector<std::uint8_t>& out) {
  if (config.mode == "abs") {
    sz::Params params;
    params.abs_error_bound = config.value;
    sz::compress_into(values, dims, params, out, nullptr, pool);
  } else {
    sz::PwRelParams params;
    params.pw_rel_bound = config.value;
    sz::compress_pwrel_into(values, dims, params, out, nullptr, pool);
  }
}

void decode_sz(std::span<const std::uint8_t> bytes, ThreadPool* pool,
               std::vector<float>& out) {
  if (sz::is_pwrel_stream(bytes)) {
    sz::decompress_pwrel_into(bytes, out, nullptr, pool);
  } else {
    sz::decompress_into(bytes, out, nullptr, pool);
  }
}

/// The GPU-SZ prototype is 3-D only; 1-D inputs arrive reshaped
/// (reshape_1d), 2-D ones are rejected like the OpenMP prototype does.
void encode_sz_3d(std::span<const float> values, const Dims& dims,
                  const CompressorConfig& config, ThreadPool* pool,
                  std::vector<std::uint8_t>& out) {
  require(dims.rank() == 3,
          "GPU-SZ supports only 3-D data; reshape 1-D inputs first (paper Sec. IV-B4)");
  encode_sz(values, dims, config, pool, out);
}

zfp::Params zfp_params_for(const CompressorConfig& config) {
  zfp::Params params;
  if (config.mode == "rate") {
    params.mode = zfp::Mode::kFixedRate;
    params.rate = config.value;
  } else if (config.mode == "precision") {
    params.mode = zfp::Mode::kFixedPrecision;
    // A whole bit count within unsigned range (require_valid_value).
    params.precision = static_cast<unsigned>(config.value);
  } else {
    params.mode = zfp::Mode::kFixedAccuracy;
    params.tolerance = config.value;
  }
  return params;
}

void encode_zfp(std::span<const float> values, const Dims& dims,
                const CompressorConfig& config, ThreadPool* pool,
                std::vector<std::uint8_t>& out) {
  zfp::compress_into(values, dims, zfp_params_for(config), out, nullptr, pool);
}

void decode_zfp(std::span<const std::uint8_t> bytes, ThreadPool* pool,
                std::vector<float>& out) {
  zfp::decompress_into(bytes, out, nullptr, pool);
}

/// ZFP with OpenMP-style chunk parallelism over the global thread pool —
/// the "ZFP OpenMP" row of Fig. 8, plus the parallel decompression the
/// released library lacked (every chunk is self-describing). The session
/// pool is ignored: the chunks already fan out over the global pool.
void encode_zfp_chunked(std::span<const float> values, const Dims& dims,
                        const CompressorConfig& config, ThreadPool* /*pool*/,
                        std::vector<std::uint8_t>& out) {
  out = zfp::compress_chunked(values, dims, zfp_params_for(config), &global_pool());
}

void decode_zfp_chunked(std::span<const std::uint8_t> bytes, ThreadPool* /*pool*/,
                        std::vector<float>& out) {
  out = zfp::decompress_chunked(bytes, &global_pool());
}

/// The shared ABS-bound lattice: log-spaced fractions of the field's value
/// range, matching the paper's per-field bound scaling.
std::vector<SweepAxis> sz_style_sweep() {
  SweepAxis abs;
  abs.mode = "abs";
  abs.kind = SweepAxis::Kind::kRangeFractions;
  abs.lo = 2e-6;
  abs.hi = 2e-3;
  abs.count = 4;
  SweepAxis pwrel;
  pwrel.mode = "pw_rel";
  pwrel.kind = SweepAxis::Kind::kLogValues;
  pwrel.lo = 1e-3;
  pwrel.hi = 1e-1;
  pwrel.count = 4;
  return {abs, pwrel};
}

SweepAxis rate_axis() {
  SweepAxis rate;
  rate.mode = "rate";
  rate.kind = SweepAxis::Kind::kFixedValues;
  rate.values = {1.0, 2.0, 4.0, 8.0};
  return rate;
}

SweepAxis accuracy_axis() {
  SweepAxis acc;
  acc.mode = "accuracy";
  acc.kind = SweepAxis::Kind::kLogValues;
  acc.lo = 1e-2;
  acc.hi = 1.0;
  acc.count = 4;
  return acc;
}

}  // namespace

namespace detail {

void register_paper_codecs(CodecRegistry& registry) {
  {
    CodecCapabilities caps;
    caps.name = "gpu-sz";
    caps.summary = "GPU-SZ prototype (simulated device; 1-D fields reshaped to 3-D)";
    caps.modes = {"abs", "pw_rel"};
    caps.needs_device = true;
    caps.concurrent_sessions_safe = false;  // shares the simulator jitter stream
    // The paper excludes GPU-SZ throughput: the OpenMP prototype's memory
    // layout is unoptimized, so kernel GB/s prints N/A.
    caps.throughput_reportable = false;
    caps.abs_rate_estimable = true;  // abs path is the SZ pipeline
    caps.kernel_profile = "sz";
    caps.reshape_1d = true;
    caps.default_sweep = sz_style_sweep();
    registry.add(std::move(caps), {encode_sz_3d, decode_sz});
  }
  {
    CodecCapabilities caps;
    caps.name = "cuzfp";
    caps.summary = "cuZFP (simulated device; fixed-rate transform coding)";
    caps.modes = {"rate"};
    caps.needs_device = true;
    caps.concurrent_sessions_safe = false;
    caps.plot_dashed = true;  // the paper draws fixed-rate cuZFP series dashed
    caps.kernel_profile = "zfp";
    caps.reshape_1d = true;
    caps.default_sweep = {rate_axis()};
    registry.add(std::move(caps), {encode_zfp, decode_zfp});
  }
  {
    CodecCapabilities caps;
    caps.name = "sz-cpu";
    caps.summary = "CPU SZ (Lorenzo + quantize + Huffman/LZSS; measured wall time)";
    caps.modes = {"abs", "pw_rel"};
    caps.abs_rate_estimable = true;
    caps.default_sweep = sz_style_sweep();
    registry.add(std::move(caps), {encode_sz, decode_sz});
  }
  {
    CodecCapabilities caps;
    caps.name = "zfp-cpu";
    caps.summary = "CPU ZFP (fixed-rate / fixed-accuracy / fixed-precision)";
    caps.modes = {"rate", "accuracy", "precision"};
    caps.plot_dashed = true;
    SweepAxis precision;
    precision.mode = "precision";
    precision.kind = SweepAxis::Kind::kFixedValues;
    precision.values = {8.0, 12.0, 16.0, 20.0};
    caps.default_sweep = {rate_axis(), accuracy_axis(), precision};
    registry.add(std::move(caps), {encode_zfp, decode_zfp});
  }
  {
    CodecCapabilities caps;
    caps.name = "zfp-omp";
    caps.summary = "CPU ZFP with OpenMP-style chunk parallelism (global pool)";
    caps.modes = {"rate", "accuracy"};
    // Chunks already fan out over the global pool; a pool worker opening a
    // nested chunked run could deadlock waiting for its own queue.
    caps.concurrent_sessions_safe = false;
    caps.default_sweep = {rate_axis(), accuracy_axis()};
    registry.add(std::move(caps), {encode_zfp_chunked, decode_zfp_chunked});
  }
}

}  // namespace detail

std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim) {
  return CodecRegistry::instance().make(name, sim);
}

std::vector<std::string> available_compressors() {
  return CodecRegistry::instance().names();
}

}  // namespace cosmo::foresight
