/// \file nyx_pipeline.cpp
/// \brief The full Foresight pipeline, JSON-configured, exactly as the paper
/// describes its framework (Section IV-A): "By only configuring a simple
/// JSON file, Foresight can automatically evaluate diverse compression
/// configurations and provide user-desired analysis and visualization."
///
/// Runs CBench sweeps over both GPU compressors, a PAT-scheduled
/// power-spectrum analysis, and emits a Cinema database (data.csv +
/// SVG plots + index.html).
///
/// Usage: nyx_pipeline [--config my.json] [--out out/nyx_demo] [--dim 64]
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "foresight/pipeline.hpp"

using namespace cosmo;

namespace {

/// The default pipeline config, written next to the outputs for reference.
std::string default_config(const std::string& out_dir, long dim) {
  return strprintf(R"({
  "output": "%s",
  "dataset": {"type": "nyx", "dim": %ld, "seed": 42},
  "gpu": "Tesla V100",
  "runs": [
    {"compressor": "gpu-sz",
     "configs": [{"mode": "abs", "value": 0.2}, {"mode": "abs", "value": 1.0}]},
    {"compressor": "cuzfp",
     "configs": [{"mode": "rate", "value": 2}, {"mode": "rate", "value": 4},
                  {"mode": "rate", "value": 8}]}
  ],
  "analysis": {"power_spectrum": true},
  "cinema": true
})",
                   out_dir.c_str(), dim);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_tool_args(
      argc, argv, {"config", "out", "dim"},
      "usage: nyx_pipeline [--config my.json] [--out out/nyx_demo] [--dim 64]\n");
  const std::string out_dir = args.get("out", "out/nyx_demo");
  const long dim = args.get_int("dim", 64);

  json::Value config;
  if (args.has("config")) {
    config = json::parse_file(args.get("config", ""));
    std::printf("Loaded pipeline config from %s\n", args.get("config", "").c_str());
  } else {
    config = json::parse(default_config(out_dir, dim));
    std::printf("Using the built-in demo config (override with --config).\n");
  }

  const foresight::PipelineSummary summary = foresight::run_pipeline(config);

  std::printf("\nworkflow %s; %zu CBench results\n",
              summary.workflow_ok ? "succeeded" : "had failures",
              summary.results.size());
  std::printf("%s\n", foresight::format_results(summary.results).c_str());

  if (!summary.pk_deviation.empty()) {
    std::printf("power-spectrum deviations (max |pk ratio - 1|, k <= k_nyq/2):\n");
    for (const auto& [key, dev] : summary.pk_deviation) {
      std::printf("  %-55s %.5f %s\n", key.c_str(), dev,
                  dev <= 0.01 ? "within 1%" : "OUTSIDE 1% band");
    }
  }

  // Persist the config used, for reproducibility.
  {
    std::ofstream cfg(summary.output_dir + "/config_used.json");
    cfg << config.dump(2) << "\n";
  }
  std::printf("\nCinema database and plots written under %s/\n",
              summary.output_dir.c_str());
  return summary.workflow_ok ? 0 : 1;
}
