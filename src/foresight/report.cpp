#include "foresight/report.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "common/str.hpp"

namespace cosmo::foresight {

namespace {

std::string result_key(const CBenchResult& r) {
  return r.field + "|" + r.compressor + "|" + r.config.label();
}

std::string lookup(const std::map<std::string, double>& m, const std::string& key,
                   const char* fmt) {
  const auto it = m.find(key);
  return it == m.end() ? std::string("-") : strprintf(fmt, it->second);
}

}  // namespace

std::string render_markdown_report(const std::vector<CBenchResult>& results,
                                   const std::map<std::string, double>& pk_deviation,
                                   const std::map<std::string, double>& halo_deviation,
                                   const std::map<std::string, double>& ssim,
                                   const ReportOptions& options) {
  std::string md = "# " + options.title + "\n\n";
  if (results.empty()) {
    md += "No results.\n";
    return md;
  }

  // Summary header.
  std::set<std::string> codecs, fields;
  for (const auto& r : results) {
    codecs.insert(r.compressor);
    fields.insert(r.field);
  }
  std::size_t failed = 0;
  std::size_t fallbacks = 0;
  std::size_t retried = 0;
  for (const auto& r : results) {
    if (r.status != "ok") ++failed;
    if (any_cpu_fallback(r.compress, r.decompress)) ++fallbacks;
    if (max_device_attempts(r.compress, r.decompress) > 1) ++retried;
  }
  md += strprintf("- runs: **%zu** (%zu fields x %zu compressors)\n", results.size(),
                  fields.size(), codecs.size());
  if (failed > 0) md += strprintf("- failed runs: **%zu** (marked below)\n", failed);
  if (fallbacks > 0) {
    md += strprintf("- host fallbacks: **%zu** (device-OOM degraded to the CPU codec)\n",
                    fallbacks);
  }
  if (retried > 0) {
    md += strprintf("- runs with device retries: **%zu**\n", retried);
  }
  md += strprintf("- dataset: %s\n", results.front().dataset.c_str());
  md += strprintf("- power-spectrum acceptance band: 1 ± %.0f%%\n\n",
                  options.pk_tolerance * 100.0);

  // One table per codec. The flags column surfaces host fallbacks and
  // device retries (see result_flags); FAILED rows carry the error text.
  for (const auto& codec : codecs) {
    md += "## " + codec + "\n\n";
    md += "| field | config | ratio | bits/value | PSNR (dB) | pk dev | halo dev | SSIM "
          "| flags |\n";
    md += "|---|---|---|---|---|---|---|---|---|\n";
    for (const auto& r : results) {
      if (r.compressor != codec) continue;
      if (r.status != "ok") {
        md += strprintf("| %s | %s | FAILED | - | - | - | - | - | %s |\n",
                        r.field.c_str(), r.config.label().c_str(),
                        r.error.empty() ? "failed" : r.error.c_str());
        continue;
      }
      const std::string key = result_key(r);
      const auto pk_it = pk_deviation.find(key);
      std::string pk_cell = "-";
      if (pk_it != pk_deviation.end()) {
        pk_cell = strprintf("%.4f %s", pk_it->second,
                            pk_it->second <= options.pk_tolerance ? "OK" : "reject");
      }
      // Halo deviations are keyed by the pseudo-field "position".
      const std::string halo_cell =
          lookup(halo_deviation, "position|" + codec + "|" + r.config.label(), "%.4f");
      md += strprintf("| %s | %s | %.2fx | %.3f | %.2f | %s | %s | %s | %s |\n",
                      r.field.c_str(), r.config.label().c_str(), r.ratio, r.bit_rate,
                      r.distortion.psnr_db, pk_cell.c_str(), halo_cell.c_str(),
                      lookup(ssim, key, "%.4f").c_str(), result_flags(r).c_str());
    }
    md += "\n";
  }

  // Best-fit picks (guideline step 3): per field, highest ratio whose pk
  // deviation (when known) is within tolerance.
  md += "## Best-fit picks (Section V-D guideline)\n\n";
  for (const auto& field : fields) {
    const CBenchResult* best = nullptr;
    for (const auto& r : results) {
      if (r.field != field) continue;
      if (r.status != "ok") continue;  // failed rows can't be picked
      const auto pk_it = pk_deviation.find(result_key(r));
      if (pk_it != pk_deviation.end() && pk_it->second > options.pk_tolerance) continue;
      if (!best || r.ratio > best->ratio) best = &r;
    }
    if (best) {
      md += strprintf("- **%s** -> %s `%s` (%.2fx)\n", field.c_str(),
                      best->compressor.c_str(), best->config.label().c_str(), best->ratio);
    } else {
      md += strprintf("- **%s** -> no acceptable configuration evaluated\n", field.c_str());
    }
  }
  md += "\nThroughput rows marked N/A follow the paper's treatment of the "
        "GPU-SZ prototype (unoptimized memory layout).\n";
  return md;
}

std::string render_markdown_report(const PipelineSummary& summary,
                                   const ReportOptions& options) {
  return render_markdown_report(summary.results, summary.pk_deviation,
                                summary.halo_deviation, summary.ssim, options);
}

void write_markdown_report(const PipelineSummary& summary, const std::string& path,
                           const ReportOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("report: cannot write " + path);
  out << render_markdown_report(summary, options);
}

}  // namespace cosmo::foresight
