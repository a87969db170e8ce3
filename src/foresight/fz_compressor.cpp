/// \file fz_compressor.cpp
/// \brief The fz-cpu / fz-gpu registrations: the FZ-GPU-style bitshuffle
/// pipeline (fz/fz.hpp) behind Foresight's session interface.
///
/// These two codecs exercise the registry contract: each is one
/// registration — capabilities plus the host encode/decode pair — and is
/// wired into sweeps, the optimizer, the pipeline, CBench, the CLI and the
/// bench binaries without any dispatch layer naming it. fz-cpu measures
/// host wall time and threads the chunk pipeline on the session pool;
/// fz-gpu runs the same bit-exact pair, on the same session pool, under
/// the simulator's "fz" kernel-rate profile, and on device OOM keeps the
/// stream the host pair already produced (fallback recorded).
#include "foresight/compressor.hpp"

#include "fz/fz.hpp"

namespace cosmo::foresight {

namespace {

void encode_fz(std::span<const float> values, const Dims& dims,
               const CompressorConfig& config, ThreadPool* pool,
               std::vector<std::uint8_t>& out) {
  fz::Params params;
  params.abs_error_bound = config.value;
  fz::compress_into(values, dims, params, out, nullptr, pool);
}

void decode_fz(std::span<const std::uint8_t> bytes, ThreadPool* pool,
               std::vector<float>& out) {
  fz::decompress_into(bytes, out, nullptr, pool);
}

/// The ABS lattice both fz codecs sweep by default — the same range-scaled
/// fractions the SZ family uses, so rate-distortion figures are comparable.
std::vector<SweepAxis> fz_sweep() {
  SweepAxis abs;
  abs.mode = "abs";
  abs.kind = SweepAxis::Kind::kRangeFractions;
  abs.lo = 2e-6;
  abs.hi = 2e-3;
  abs.count = 4;
  return {abs};
}

}  // namespace

namespace detail {

void register_fz_codecs(CodecRegistry& registry) {
  {
    CodecCapabilities caps;
    caps.name = "fz-cpu";
    caps.summary = "FZ bitshuffle pipeline on the host (quantize + bitshuffle + zero-run)";
    caps.modes = {"abs"};
    caps.default_sweep = fz_sweep();
    registry.add(std::move(caps), {encode_fz, decode_fz});
  }
  {
    CodecCapabilities caps;
    caps.name = "fz-gpu";
    caps.summary = "FZ-GPU (simulated device; fastest kernel profile, arXiv:2304.12557)";
    caps.modes = {"abs"};
    caps.needs_device = true;
    caps.concurrent_sessions_safe = false;  // shares the simulator jitter stream
    caps.throughput_reportable = true;  // kernel GB/s is the codec's headline
    caps.kernel_profile = "fz";
    caps.default_sweep = fz_sweep();
    registry.add(std::move(caps), {encode_fz, decode_fz});
  }
}

}  // namespace detail

}  // namespace cosmo::foresight
