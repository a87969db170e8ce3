// bestfit: the paper's Section V-D best-fit search (exhaustive, sz-cpu, 4
// evaluation workers) on a Nyx 64^3 snapshot (P(k) within 1%, 28 abs bounds
// per field) and a 60k-particle HACC snapshot (FoF halo counts within 5%, 12
// position abs bounds + 8 velocity pw_rel bounds). The analysis layer
// dominates: P(k)/FFT on the grid, FoF on the particles.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "analysis/fof.hpp"
#include "analysis/halo_stats.hpp"
#include "analysis/power_spectrum.hpp"
#include "analysis/stats.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/compressor.hpp"
#include "foresight/optimizer.hpp"
#include "foresight/sweep.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fs = cosmo::foresight;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr double kPkTolerance = 0.01;
constexpr double kKFraction = 0.5;
constexpr double kHaloTolerance = 0.05;
constexpr double kVelocityTolerance = 0.05;
constexpr double kPairSeconds = 10.0;  // about one search pair on the 4-core host

struct State {
  cosmo::io::Container nyx;
  cosmo::io::Container hacc;
  std::map<std::string, std::vector<fs::CompressorConfig>> nyx_cands;
  std::vector<fs::CompressorConfig> pos_cands, vel_cands;
  cosmo::analysis::FofParams fof;
  std::unique_ptr<fs::Compressor> codec;
  std::unique_ptr<cosmo::ThreadPool> pool;
};

void setup(State& st, const Options& opt, double& generate_s) {
  st = State{};
  cosmo::NyxConfig ncfg;
  ncfg.dim = opt.smoke ? 32 : 64;
  ncfg.seed = derive_seed(opt.seed, 11);
  cosmo::HaccConfig hcfg;
  // Near-equal halos (dn/dM ~ M^-6). With the generator's default M^-2 the
  // largest of a few dozen halos holds most clustered particles, and FoF
  // cost, which grows with the square of halo size, varied 8x across seeds.
  hcfg.particles = opt.smoke ? 8000 : 60000;
  hcfg.halo_count = opt.smoke ? 8 : 20;
  hcfg.mass_slope = 6.0;
  hcfg.seed = derive_seed(opt.seed, 12);
  generate_s = timed([&] {
    st.nyx = cosmo::generate_nyx(ncfg);
    st.hacc = cosmo::generate_hacc(hcfg);
  });
  // The BENCH_optimizer.json lattices.
  for (const auto& v : st.nyx.variables) {
    st.nyx_cands[v.field.name] = fs::abs_sweep_for_field(v.field, 2e-6, 2e-2, 28);
  }
  st.pos_cands = fs::abs_sweep_for_field(st.hacc.find("x").field, 4e-6, 4e-3, 12);
  st.vel_cands = fs::pwrel_sweep(1e-3, 2e-1, 8);
  st.fof.linking_length = 1.0;
  st.fof.min_members = 20;
  st.codec = fs::make_compressor("sz-cpu", nullptr);
  st.pool = std::make_unique<cosmo::ThreadPool>(kWorkers);
  // Warm-up: one session call pair and one spectrum, so lazy tables exist.
  const auto& f0 = st.nyx.variables.front().field;
  auto s = st.codec->open_session();
  (void)s->decompress(s->compress(f0, st.nyx_cands.begin()->second.back()));
  (void)cosmo::analysis::power_spectrum(f0.data, f0.dims, 0, st.pool.get());
}

bool same_choices(const fs::OptimizationResult& a, const fs::OptimizationResult& b) {
  if (a.per_field.size() != b.per_field.size() || a.overall_ratio != b.overall_ratio) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_field.size(); ++i) {
    const auto& x = a.per_field[i];
    const auto& y = b.per_field[i];
    if (x.found != y.found || x.chosen.config.mode != y.chosen.config.mode ||
        x.chosen.config.value != y.chosen.config.value || x.chosen.ratio != y.chosen.ratio) {
      return false;
    }
  }
  return true;
}

bool close(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

/// The search's own selection rule, checked on its candidate table: the
/// chosen config is an acceptable candidate with the highest ratio.
bool chose_best(const fs::FieldChoice& f) {
  if (!f.found || !f.chosen.acceptable) return false;
  for (const auto& c : f.candidates) {
    if (c.status == "evaluated" && c.acceptable && c.ratio > f.chosen.ratio) return false;
  }
  return true;
}

/// Per-call costs measured while re-checking the chosen configs; they
/// estimate how busy the search's evaluation workers were.
struct EvalCosts {
  double nyx_eval_s = 0.0;    ///< summed over Nyx candidates (estimate)
  double hacc_eval_s = 0.0;   ///< summed over HACC candidates (estimate)
  double fof_s = 0.0;         ///< one FoF call, 1 thread
  double halo_compare_s = 0.0;
  double nyx_bytes = 0.0, hacc_bytes = 0.0, nyx_compressed = 0.0, hacc_compressed = 0.0;
};

/// Re-evaluates each chosen config through single-shot public calls and
/// compares ratio and quality with what the search reported.
EvalCosts check_against_reference(State& st, const fs::OptimizationResult& nyx,
                                  const fs::OptimizationResult& hacc, Report& report,
                                  Trace& trace) {
  EvalCosts costs;
  auto session = st.codec->open_session();  // 1 thread, like an eval worker
  ClassCounts& cls = report.classes["bestfit_choice"];

  // Nyx: ratio and P(k) deviation of each field's chosen config.
  for (const auto& choice : nyx.per_field) {
    ++cls.attempted;
    const cosmo::Field& field = st.nyx.find(choice.field).field;
    const std::string what = "nyx/" + choice.field;
    if (!chose_best(choice)) {
      report.mismatch("bestfit_choice", what + ": chosen config is not the best acceptable one");
      continue;
    }
    fs::CompressResult c;
    fs::DecompressResult d;
    std::vector<cosmo::analysis::PkBin> base;
    cosmo::analysis::PkRatio pk;
    double eval = 0.0;
    {
      Trace::Scope span(trace, "analysis.power_spectrum");
      base = cosmo::analysis::power_spectrum(field.data, field.dims, 0, st.pool.get());
    }
    {
      Trace::Scope span(trace, "foresight.session_compress");
      eval += timed([&] { session->compress(field, choice.chosen.config, c); });
    }
    {
      Trace::Scope span(trace, "foresight.session_decompress");
      eval += timed([&] { session->decompress(c, d); });
    }
    {
      Trace::Scope span(trace, "analysis.compare");
      eval += timed([&] { (void)cosmo::analysis::compare(field.data, d.values); });
    }
    {
      Trace::Scope span(trace, "analysis.pk_ratio");
      eval += timed([&] { pk = cosmo::analysis::pk_ratio(base, d.values, field.dims, kKFraction); });
    }
    costs.nyx_eval_s += eval * static_cast<double>(choice.candidates.size());
    const double ratio = cosmo::analysis::compression_ratio(field.bytes(), c.bytes.size());
    costs.nyx_bytes += static_cast<double>(field.bytes());
    costs.nyx_compressed += static_cast<double>(c.bytes.size());
    if (!close(ratio, choice.chosen.ratio) || !close(pk.max_deviation, choice.chosen.metric_deviation) ||
        !cosmo::analysis::pk_acceptable(pk, kPkTolerance)) {
      report.mismatch("bestfit_choice", what + ": reference ratio/P(k) differ from the search");
      continue;
    }
    ++cls.ok;
  }

  // HACC positions: ratio and FoF halo-count deviation of the chosen bound.
  const auto& x = st.hacc.find("x").field;
  const auto& y = st.hacc.find("y").field;
  const auto& z = st.hacc.find("z").field;
  cosmo::analysis::FofResult orig;
  {
    Trace::Scope span(trace, "analysis.fof");
    orig = cosmo::analysis::fof(x.data, y.data, z.data, st.fof, st.pool.get());
  }
  const auto baseline = cosmo::analysis::make_halo_baseline(orig.halos, 1.0);
  for (const auto& choice : hacc.per_field) {
    ++cls.attempted;
    const std::string what = "hacc/" + choice.field;
    if (!chose_best(choice)) {
      report.mismatch("bestfit_choice", what + ": chosen config is not the best acceptable one");
      continue;
    }
    const bool positions = choice.field == "position";
    const char* names[3] = {positions ? "x" : "vx", positions ? "y" : "vy",
                            positions ? "z" : "vz"};
    std::vector<std::vector<float>> recon;
    std::size_t comp_bytes = 0;
    double eval = 0.0;
    bool bound_ok = true;
    for (const char* n : names) {
      const cosmo::Field& f = st.hacc.find(n).field;
      fs::CompressResult c;
      fs::DecompressResult d;
      {
        Trace::Scope span(trace, "foresight.session_compress");
        eval += timed([&] { session->compress(f, choice.chosen.config, c); });
      }
      {
        Trace::Scope span(trace, "foresight.session_decompress");
        eval += timed([&] { session->decompress(c, d); });
      }
      {
        Trace::Scope span(trace, "analysis.compare");
        eval += timed([&] { (void)cosmo::analysis::compare(f.data, d.values); });
      }
      comp_bytes += c.bytes.size();
      if (!positions) {
        // pw_rel contract: every value within bound * |original|.
        const double b = choice.chosen.config.value;
        for (std::size_t i = 0; i < f.data.size() && bound_ok; ++i) {
          const double o = f.data[i];
          bound_ok = std::fabs(static_cast<double>(d.values[i]) - o) <= b * std::fabs(o) * (1 + 1e-6);
        }
      }
      recon.push_back(std::move(d.values));
    }
    const double ratio = 3.0 * static_cast<double>(x.bytes()) / static_cast<double>(comp_bytes);
    costs.hacc_bytes += 3.0 * static_cast<double>(x.bytes());
    costs.hacc_compressed += static_cast<double>(comp_bytes);
    bool quality_ok = bound_ok;
    if (positions) {
      cosmo::analysis::FofResult rh;
      {
        Trace::Scope span(trace, "analysis.fof");
        costs.fof_s = timed([&] { rh = cosmo::analysis::fof(recon[0], recon[1], recon[2], st.fof); });
      }
      cosmo::analysis::HaloComparison cmp;
      {
        Trace::Scope span(trace, "analysis.halo_compare");
        costs.halo_compare_s =
            timed([&] { cmp = cosmo::analysis::compare_halo_catalogs(baseline, rh.halos); });
      }
      eval += costs.fof_s + costs.halo_compare_s;
      quality_ok = !rh.halos.empty() && close(cmp.max_ratio_deviation, choice.chosen.metric_deviation) &&
                   cmp.max_ratio_deviation <= kHaloTolerance;
    }
    costs.hacc_eval_s += eval * static_cast<double>(choice.candidates.size());
    if (!close(ratio, choice.chosen.ratio) || !quality_ok) {
      report.mismatch("bestfit_choice", what + ": reference ratio/quality differ from the search");
      continue;
    }
    ++cls.ok;
  }
  return costs;
}

}  // namespace

void run_bestfit(const Options& opt, Report& report, Trace& trace) {
  State st;
  double generate_s = 0.0;
  std::vector<double> gen_walls;
  report.set("setup_s", median_setup_seconds([&] {
               setup(st, opt, generate_s);
               gen_walls.push_back(generate_s);
             }),
             "s");

  fs::OptimizerOptions oo;
  oo.search = fs::SearchMode::kExhaustive;
  oo.threads = kWorkers;
  const auto search_nyx = [&] {
    return fs::optimize_grid_dataset(st.nyx, *st.codec, st.nyx_cands, kPkTolerance, kKFraction, oo);
  };
  const auto search_hacc = [&] {
    return fs::optimize_particle_dataset(st.hacc, *st.codec, st.pos_cands, st.vel_cands, st.fof,
                                         kHaloTolerance, kVelocityTolerance, oo);
  };

  // Measured phase: a fixed number of Nyx + HACC search pairs, one per
  // kPairSeconds of --seconds, so every run's figures rest on the same
  // count.
  Trace off(false);
  double untraced_nyx = 0.0;
  if (trace.enabled()) untraced_nyx = timed([&] { (void)search_nyx(); });
  std::vector<fs::OptimizationResult> nyx_runs, hacc_runs;
  std::vector<double> nyx_s, hacc_s, pair_s;
  std::int64_t root = -1;
  {
    Trace::Scope span(trace, "workload.bestfit");
    root = span.id();
    const auto pairs = static_cast<std::uint64_t>(std::max(1.0, std::floor(opt.seconds / kPairSeconds)));
    for (std::uint64_t op = 1; op <= pairs; ++op) {
      ClassCounts& cls = report.classes["search"];
      cls.attempted += 2;
      {
        Trace::Scope s(trace, "foresight.optimize_grid_dataset", op);
        nyx_s.push_back(timed([&] { nyx_runs.push_back(search_nyx()); }));
      }
      {
        Trace::Scope s(trace, "foresight.optimize_particle_dataset", op);
        hacc_s.push_back(timed([&] { hacc_runs.push_back(search_hacc()); }));
      }
      pair_s.push_back(nyx_s.back() + hacc_s.back());
      for (const auto* r : {&nyx_runs.back(), &hacc_runs.back()}) {
        if (r->all_fields_ok && r->stats.failed == 0) {
          ++cls.ok;
        } else {
          ++cls.failed;
          ++cls.reasons["no_acceptable_config"];
        }
      }
      if (!same_choices(nyx_runs.back(), nyx_runs.front()) ||
          !same_choices(hacc_runs.back(), hacc_runs.front())) {
        report.mismatch("search", "a repeated search chose differently");
      }
    }
  }

  const EvalCosts costs =
      check_against_reference(st, nyx_runs.front(), hacc_runs.front(), report, trace);

  const double nyx_mib = costs.nyx_bytes / (1024.0 * 1024.0);
  const double hacc_mib = costs.hacc_bytes / (1024.0 * 1024.0);
  const double ratio = (costs.nyx_bytes + costs.hacc_bytes) /
                       (costs.nyx_compressed + costs.hacc_compressed);
  report.set("latency_p50_ms", median(pair_s) * 1e3, "ms");
  report.set("latency_tail_ms", *std::max_element(pair_s.begin(), pair_s.end()) * 1e3, "ms");
  report.set("throughput_mb_s", (nyx_mib + hacc_mib) / median(pair_s), "MiB/s");
  report.set("ratio", ratio, "x");
  report.notes["workload_metrics"] =
      "{\"bestfit_nyx_s\": " + std::to_string(median(nyx_s)) +
      ", \"bestfit_hacc_s\": " + std::to_string(median(hacc_s)) +
      ", \"ratio\": " + std::to_string(ratio) +
      ", \"nyx_overall_ratio\": " + std::to_string(nyx_runs.front().overall_ratio) +
      ", \"hacc_overall_ratio\": " + std::to_string(hacc_runs.front().overall_ratio) +
      ", \"search_pairs\": " + std::to_string(pair_s.size()) + "}";
  report.notes["inputs"] =
      "{\"nyx_bytes\": " + std::to_string(static_cast<std::size_t>(costs.nyx_bytes)) +
      ", \"hacc_bytes\": " + std::to_string(static_cast<std::size_t>(costs.hacc_bytes)) +
      ", \"nyx_candidates\": " + std::to_string(nyx_runs.front().stats.candidates) +
      ", \"hacc_candidates\": " + std::to_string(hacc_runs.front().stats.candidates) + "}";

  if (trace.enabled()) {
    probe_layers(st.nyx.variables.front().field, st.pool.get(), opt.seed, report, trace);
    const auto& ns = nyx_runs.front().stats;
    const auto& hs = hacc_runs.front().stats;
    const double worker_s = static_cast<double>(kWorkers) * (median(nyx_s) + median(hacc_s));
    const double hacc_worker_s = static_cast<double>(kWorkers) * median(hacc_s);
    const double position_evals = static_cast<double>(hacc_runs.front().per_field.front().candidates.size());
    report.layer("foresight.optimizer_full_evals", static_cast<double>(ns.full_evals + hs.full_evals), "count");
    report.layer("foresight.optimizer_baseline_cache_hits",
                 static_cast<double>(ns.baseline_cache_hits + hs.baseline_cache_hits), "count");
    report.layer("foresight.eval_busy_frac", (costs.nyx_eval_s + costs.hacc_eval_s) / worker_s, "ratio");
    report.layer("analysis.fof_share", costs.fof_s * position_evals / hacc_worker_s, "ratio");
    report.layer("analysis.halo_compare_share", costs.halo_compare_s * position_evals / hacc_worker_s,
                 "ratio");
    zero_workload_layers(report);
    report.layer("cosmo.generate_s", median(gen_walls), "s");
    report.layer("unattributed_frac", unattributed_frac(trace, root), "ratio");
    report.layer("trace_overhead_frac", untraced_nyx > 0 ? nyx_s.front() / untraced_nyx - 1.0 : 0.0,
                 "ratio");
  }
}

}  // namespace perfbench
