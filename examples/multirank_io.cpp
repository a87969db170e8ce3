/// \file multirank_io.cpp
/// \brief HACC-style multi-rank in-situ compression scenario.
///
/// The paper's I/O motivation (Section I): a trillion-particle HACC run
/// writes 220 TB per snapshot over many ranks, and in-situ compression must
/// keep up. This example rebuilds that pipeline at laptop scale on the
/// in-process MPI substrate: the snapshot is domain-decomposed over an
/// rx x ry x rz rank grid (the dataset's own layout was 8x8x4), every rank
/// compresses its slab's particles with SZ, and rank 0 aggregates ratio /
/// error / modeled-I/O statistics with collectives.
///
/// Usage: multirank_io [--ranks 8] [--particles 120000] [--bound 0.005]
#include <cmath>
#include <cstdio>
#include <cstring>

#include "analysis/stats.hpp"
#include "common/cli.hpp"
#include "common/str.hpp"
#include "cosmo/hacc_synth.hpp"
#include "mpi/comm.hpp"
#include "mpi/domain.hpp"
#include "sz/sz.hpp"

using namespace cosmo;

int main(int argc, char** argv) {
  const CliArgs args = parse_tool_args(
      argc, argv, {"ranks", "particles", "bound"},
      "usage: multirank_io [--ranks 8] [--particles 120000] [--bound 0.005]\n");
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  const std::size_t particles = static_cast<std::size_t>(args.get_int("particles", 120000));
  const double bound = args.get_double("bound", 0.005);

  // Rank grid: factor `ranks` as evenly as possible into rx x ry x rz.
  mpi::DomainDecomposition domain;
  domain.rx = ranks >= 8 ? 2 : 1;
  domain.ry = ranks >= 4 ? 2 : 1;
  domain.rz = static_cast<std::size_t>(ranks) / (domain.rx * domain.ry);
  require(domain.rank_count() == static_cast<std::size_t>(ranks),
          "multirank_io: --ranks must be 1, 2, 4 or a multiple of 4");

  HaccConfig config;
  config.particles = particles;
  config.halo_count = std::max<std::size_t>(30, particles / 2000);
  std::printf("Generating %zu particles; decomposing over %zux%zux%zu ranks...\n",
              particles, domain.rx, domain.ry, domain.rz);
  const io::Container snapshot = generate_hacc(config);
  const auto& x = snapshot.find("x").field.data;
  const auto& y = snapshot.find("y").field.data;
  const auto& z = snapshot.find("z").field.data;
  const auto parts = mpi::partition_particles(domain, x, y, z);

  std::printf("%-6s %10s %12s %10s %12s\n", "rank", "particles", "compressed",
              "ratio", "max err");
  std::printf("%s\n", std::string(56, '-').c_str());

  mpi::run_world(ranks, [&](mpi::Comm& comm) {
    const auto& mine = parts[static_cast<std::size_t>(comm.rank())];

    // Gather this rank's slab particles (x coordinate; y/z identical cost).
    std::vector<float> local(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) local[i] = x[mine[i]];

    double local_ratio = 0.0;
    double local_max_err = 0.0;
    std::size_t local_compressed = 0;
    if (!local.empty()) {
      sz::Params params;
      params.abs_error_bound = bound;
      const auto bytes = sz::compress(local, Dims::d1(local.size()), params);
      const auto recon = sz::decompress(bytes);
      local_compressed = bytes.size();
      local_ratio = static_cast<double>(local.size() * 4) /
                    static_cast<double>(bytes.size());
      for (std::size_t i = 0; i < local.size(); ++i) {
        local_max_err = std::max(
            local_max_err, std::fabs(static_cast<double>(recon[i]) - local[i]));
      }
    }

    // Per-rank report lines are serialized through rank 0 via gather.
    const std::string line = strprintf("%-6d %10zu %12zu %10.2f %12.4g", comm.rank(),
                                       mine.size(), local_compressed, local_ratio,
                                       local_max_err);
    mpi::Message msg(line.begin(), line.end());
    const auto all = comm.gather(0, std::move(msg));
    if (comm.rank() == 0) {
      for (const auto& m : all) {
        std::printf("%s\n", std::string(m.begin(), m.end()).c_str());
      }
    }

    // Aggregate statistics with collectives (the numbers a real in-situ
    // pipeline would feed to its I/O scheduler).
    const double total_raw = comm.allreduce_sum(static_cast<double>(mine.size() * 4));
    const double total_compressed =
        comm.allreduce_sum(static_cast<double>(local_compressed));
    const double worst_err = comm.allreduce_max(local_max_err);
    comm.barrier();
    if (comm.rank() == 0) {
      std::printf("%s\n", std::string(56, '-').c_str());
      std::printf("aggregate ratio %.2fx, worst-rank max error %.4g (bound %.4g)\n",
                  total_raw / total_compressed, worst_err, bound);
      // Paper-scale projection: 220 TB snapshot over 500 GB/s storage.
      const double snapshot_tb = 220.0;
      const double bw_gbps = 500.0;
      const double ratio = total_raw / total_compressed;
      std::printf(
          "at HACC scale: a %.0f TB snapshot writes in %.1f min raw vs %.1f min "
          "compressed at %.0f GB/s sustained\n",
          snapshot_tb, snapshot_tb * 1e3 / bw_gbps / 60.0,
          snapshot_tb * 1e3 / ratio / bw_gbps / 60.0, bw_gbps);
    }
  });
  return 0;
}
