/// \file temporal_archive.cpp
/// \brief Snapshot-archive scenario: the choice the paper's introduction
/// frames — decimate the time series, or compress it with error bounds.
///
/// Generates a temporally coherent density sequence, then compares three
/// archive strategies at a user-chosen error bound:
///   1. decimation + linear interpolation (the status quo the paper
///      criticizes),
///   2. per-snapshot spatial SZ,
///   3. temporal (adjacent-snapshot) SZ — the related-work direction [41].
///
/// Usage: temporal_archive [--dim 48] [--steps 10] [--bound-frac 1e-3]
#include <cstdio>

#include "analysis/decimation.hpp"
#include "analysis/stats.hpp"
#include "common/cli.hpp"
#include "common/str.hpp"
#include "cosmo/nyx_sequence.hpp"
#include "sz/temporal.hpp"

using namespace cosmo;

int main(int argc, char** argv) {
  const CliArgs args = parse_tool_args(
      argc, argv, {"dim", "steps", "bound-frac"},
      "usage: temporal_archive [--dim 48] [--steps 10] [--bound-frac 1e-3]\n");
  NyxSequenceConfig config;
  config.base.dim = static_cast<std::size_t>(args.get_int("dim", 48));
  config.steps = static_cast<std::size_t>(args.get_int("steps", 10));
  config.rotation_per_step = 0.1;
  const double bound_frac = args.get_double("bound-frac", 1e-3);

  std::printf("Generating %zu coherent snapshots at %zu^3...\n", config.steps,
              config.base.dim);
  const auto frames = generate_nyx_density_sequence(config);
  const double raw_bytes =
      static_cast<double>(frames.size()) * static_cast<double>(frames[0].bytes());
  const auto [lo, hi] = value_range(frames[0].view());
  const double bound = (static_cast<double>(hi) - lo) * bound_frac;
  std::printf("raw archive: %s; abs error bound %.4g (%.0e of range)\n\n",
              human_bytes(static_cast<std::uint64_t>(raw_bytes)).c_str(), bound,
              bound_frac);

  std::printf("%-32s %10s %12s %16s\n", "strategy", "ratio", "mean PSNR",
              "per-point bound");
  std::printf("%s\n", std::string(75, '-').c_str());

  // 1. Decimation at the factor whose storage matches spatial SZ (~5x).
  for (const std::size_t keep : {2u, 4u}) {
    const auto d = analysis::decimate_and_reconstruct(frames, keep);
    std::printf("%-32s %10.2f %12.2f %16s\n",
                strprintf("decimation keep-1-in-%zu", keep).c_str(), d.storage_ratio,
                analysis::sequence_mean_psnr(frames, d.reconstructed), "none");
  }

  // 2. Spatial SZ per snapshot.
  sz::TemporalParams spatial;
  spatial.abs_error_bound = bound;
  spatial.key_interval = 1;
  sz::TemporalStats spatial_stats;
  const auto spatial_bytes = sz::compress_temporal(frames, spatial, &spatial_stats);
  std::printf("%-32s %10.2f %12.2f %16s\n", "SZ spatial (every frame keyed)",
              raw_bytes / static_cast<double>(spatial_stats.compressed_bytes),
              analysis::sequence_mean_psnr(frames, sz::decompress_temporal(spatial_bytes)),
              "guaranteed");

  // 3. Temporal SZ (one key frame, previous-snapshot prediction).
  sz::TemporalParams temporal = spatial;
  temporal.key_interval = 0;
  sz::TemporalStats temporal_stats;
  const auto temporal_bytes = sz::compress_temporal(frames, temporal, &temporal_stats);
  std::printf("%-32s %10.2f %12.2f %16s\n", "SZ temporal (adjacent-snapshot)",
              raw_bytes / static_cast<double>(temporal_stats.compressed_bytes),
              analysis::sequence_mean_psnr(frames,
                                           sz::decompress_temporal(temporal_bytes)),
              "guaranteed");

  std::printf(
      "\nTakeaway (paper Section I): error-bounded compression archives the *whole*\n"
      "series with a per-point guarantee at a ratio decimation can only reach by\n"
      "throwing snapshots away — and temporal prediction roughly doubles it again\n"
      "on fine-cadence output.\n");
  return 0;
}
