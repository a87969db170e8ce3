/// \file autotune.cpp
/// \brief The Section V-D optimization guideline end-to-end: benchmark a
/// candidate configuration grid with CBench, filter by the domain metrics
/// (power-spectrum ratio within 1 +/- 1%), and pick the acceptable
/// configuration with the highest compression ratio per field.
///
/// Usage: autotune [--dim 64] [--compressor gpu-sz|cuzfp] [--tolerance 0.01]
#include <cstdio>

#include "common/cli.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/optimizer.hpp"
#include "foresight/sweep.hpp"

using namespace cosmo;

int main(int argc, char** argv) {
  const CliArgs args = parse_tool_args(
      argc, argv, {"dim", "compressor", "tolerance"},
      "usage: autotune [--dim 64] [--compressor gpu-sz|cuzfp] [--tolerance 0.01]\n");
  NyxConfig nyx;
  nyx.dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const std::string codec_name = args.get("compressor", "gpu-sz");
  const double tolerance = args.get_double("tolerance", 0.01);

  std::printf("Guideline run: %s on synthetic Nyx %zu^3, pk tolerance 1+/-%.0f%%\n\n",
              codec_name.c_str(), nyx.dim, tolerance * 100.0);
  const io::Container data = generate_nyx(nyx);

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  const auto codec = foresight::make_compressor(codec_name, &sim);

  // Candidate grids per field, mirroring the paper's sweeps: absolute error
  // bounds scaled to each field's value range for GPU-SZ (Fig. 5b), fixed
  // bitrates for cuZFP (Fig. 5a) — built with the shared sweep API.
  std::map<std::string, std::vector<foresight::CompressorConfig>> candidates;
  for (const auto& variable : data.variables) {
    candidates[variable.field.name] =
        foresight::default_grid_candidates(codec_name, variable.field);
  }

  const auto result =
      foresight::optimize_grid_dataset(data, *codec, candidates, tolerance, 0.5);
  std::printf("%s", foresight::format_optimization(result).c_str());

  std::printf(
      "\nGuideline recap (paper Section V-D): among configurations whose power\n"
      "spectrum stays within the band, the highest compression ratio also gives\n"
      "the highest overall throughput and the lowest storage cost.\n");
  return result.all_fields_ok ? 0 : 1;
}
