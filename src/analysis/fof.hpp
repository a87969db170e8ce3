/// \file fof.hpp
/// \brief Friends-of-Friends dark matter halo finder (paper Metric 3a).
///
/// "we connect each particle to all 'friends' within a distance, with a
/// group of particles in one chain considered as one halo." Implemented
/// with a linked-cell grid (cell edge = linking length) and union-find,
/// periodic boundaries. Also computes the paper's Most Connected Particle
/// (most friends) and Most Bound Particle (lowest potential) per halo on
/// request.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"

namespace cosmo::analysis {

/// Union-find with path halving + union by rank.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n);

  std::size_t find(std::size_t i);
  /// Returns true when the two sets were distinct (a merge happened).
  bool unite(std::size_t a, std::size_t b);
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> rank_;
};

struct FofParams {
  double linking_length = 1.0;   ///< FoF linking distance b
  std::size_t min_members = 10;  ///< groups below this are not halos
  double box = 256.0;            ///< periodic box edge
  bool periodic = true;
  /// Compute Most Connected Particle. Adds a degree pass that tests every
  /// candidate pair in the 27-cell neighborhoods (counted in place, never
  /// stored), so it costs far more than the partition alone.
  bool most_connected = false;
  /// Compute Most Bound Particle (pairwise potential, sampled above
  /// potential_sample_cap members).
  bool most_bound = false;
  std::size_t potential_sample_cap = 2000;
};

struct Halo {
  std::size_t members = 0;
  double cx = 0.0, cy = 0.0, cz = 0.0;  ///< center of mass (box-wrapped)
  /// Particle indices; only valid when the corresponding FofParams flag is set.
  std::size_t most_connected_particle = 0;
  std::size_t most_bound_particle = 0;
};

struct FofResult {
  /// Halo index per particle, or -1 when the particle is unbound / in a
  /// group below min_members. Halos are ordered by their smallest member
  /// index, so the ordering is a function of the input alone.
  std::vector<std::int32_t> halo_of_particle;
  std::vector<Halo> halos;
  /// Cells per box edge the linked-cell grid actually used. Smaller than
  /// floor(box / linking_length) when the particle-count-derived cap bound
  /// (coarser cells stay correct — the 27-neighbor search only needs
  /// cell_size >= linking_length — but scan more candidates).
  std::size_t grid_edge_cells = 0;
};

/// Runs FoF over particle coordinates (equal lengths). The link pass walks
/// each unordered pair of neighboring cells once and unites friends as it
/// goes, skipping pairs whose ends already share a set; no friend pair is
/// stored. It runs serially; \p pool threads the cell binning and the
/// per-halo reductions. Connected components do not depend on the visit
/// order and halos are numbered by their smallest member, so the result is
/// identical for any thread count.
FofResult fof(std::span<const float> x, std::span<const float> y,
              std::span<const float> z, const FofParams& params,
              ThreadPool* pool = nullptr);

}  // namespace cosmo::analysis
