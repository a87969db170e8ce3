#include "analysis/fof.hpp"

#include "common/telemetry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace cosmo::analysis {

DisjointSet::DisjointSet(std::size_t n) : parent_(n), rank_(n, 0) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

std::size_t DisjointSet::find(std::size_t i) {
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];  // path halving
    i = parent_[i];
  }
  return i;
}

bool DisjointSet::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = static_cast<std::uint32_t>(a);
  if (rank_[a] == rank_[b]) ++rank_[a];
  return true;
}

namespace {

/// Linked-cell acceleration structure in flat CSR form: a counting sort
/// buckets particles into cells of edge >= linking length, so friends can
/// only be in the 27 neighboring cells and each cell's particle list is a
/// contiguous slice in ascending particle order.
struct CellGrid {
  std::size_t edge_cells;
  double cell_size;
  double box;
  bool periodic;
  std::vector<std::uint32_t> cell_start;  // size cells + 1
  std::vector<std::uint32_t> particles;   // size n, CSR payload

  CellGrid(double box_, double linking_length, bool periodic_, std::span<const float> x,
           std::span<const float> y, std::span<const float> z, ThreadPool* pool)
      : box(box_), periodic(periodic_) {
    const std::size_t n = x.size();
    edge_cells = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(box_ / linking_length)));
    // Cap the grid so it never allocates more than ~4 cells per particle:
    // a finer grid than that is all empty cells (memory and traversal cost
    // with no pruning benefit). Coarser-than-natural cells stay correct —
    // the neighbor search only requires cell_size >= linking_length — and
    // the chosen edge is reported via FofResult::grid_edge_cells rather
    // than clamped silently.
    const auto cap = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::cbrt(4.0 * static_cast<double>(std::max<std::size_t>(n, 1)))));
    edge_cells = std::min(edge_cells, cap);
    cell_size = box_ / static_cast<double>(edge_cells);
    require(cell_size >= linking_length || edge_cells == 1,
            "fof: cell size fell below the linking length");

    const std::size_t n_cells = edge_cells * edge_cells * edge_cells;
    std::vector<std::uint32_t> cell_of(n);
    parallel_for(pool, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t p = lo; p < hi; ++p) {
        cell_of[p] = static_cast<std::uint32_t>(cell_index_of(x[p], y[p], z[p]));
      }
    }, /*min_grain=*/1u << 14);
    cell_start.assign(n_cells + 1, 0);
    for (const std::uint32_t c : cell_of) ++cell_start[c + 1];
    for (std::size_t c = 0; c < n_cells; ++c) cell_start[c + 1] += cell_start[c];
    particles.resize(n);
    std::vector<std::uint32_t> cursor(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t p = 0; p < n; ++p) {
      particles[cursor[cell_of[p]]++] = static_cast<std::uint32_t>(p);
    }
  }

  [[nodiscard]] std::size_t cell_index_of(double x, double y, double z) const {
    // Clamp in double before the cast: NaN, ±Inf and huge finite values
    // land in an edge cell (NaN in cell 0) instead of overflowing the
    // conversion. They never link there: a non-finite coordinate gives a
    // NaN or Inf distance, which !(d2 <= b2) rejects.
    const double last = static_cast<double>(edge_cells - 1);
    auto clampc = [this, last](double v) {
      const double q = v / cell_size;
      if (!(q >= 0.0)) return std::size_t{0};
      return q >= last ? edge_cells - 1 : static_cast<std::size_t>(q);
    };
    return index(clampc(x), clampc(y), clampc(z));
  }

  [[nodiscard]] std::size_t index(std::size_t cx, std::size_t cy, std::size_t cz) const {
    return (cz * edge_cells + cy) * edge_cells + cx;
  }

  [[nodiscard]] std::span<const std::uint32_t> cell(std::size_t idx) const {
    return {particles.data() + cell_start[idx], cell_start[idx + 1] - cell_start[idx]};
  }

  [[nodiscard]] std::size_t cell_count() const { return cell_start.size() - 1; }

  /// Calls fn(a, b) once for every unordered pair of neighboring non-empty
  /// cells, and fn(c, c) once for every non-empty cell. Periodic grids wrap;
  /// open grids drop neighbors past the edge. Only neighbors with a higher
  /// index than the cell are visited, after dropping duplicates, so each
  /// pair comes up exactly once, also on grids of edge 1 or 2 where several
  /// offsets wrap onto the same cell.
  template <typename Fn>
  void for_each_cell_pair(Fn&& fn) const {
    const long ec = static_cast<long>(edge_cells);
    auto shifted = [&](std::size_t c, int d, std::size_t& to) {
      const long v = static_cast<long>(c) + d;
      if (periodic) {
        to = static_cast<std::size_t>((v + ec) % ec);
        return true;
      }
      to = static_cast<std::size_t>(v);
      return v >= 0 && v < ec;
    };
    std::array<std::size_t, 26> upper{};
    for (std::size_t cz = 0; cz < edge_cells; ++cz) {
      for (std::size_t cy = 0; cy < edge_cells; ++cy) {
        for (std::size_t cx = 0; cx < edge_cells; ++cx) {
          const std::size_t c = index(cx, cy, cz);
          if (cell_start[c] == cell_start[c + 1]) continue;
          std::size_t count = 0;
          for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                std::size_t ox = 0, oy = 0, oz = 0;
                if (!shifted(cx, dx, ox) || !shifted(cy, dy, oy) || !shifted(cz, dz, oz)) {
                  continue;
                }
                const std::size_t o = index(ox, oy, oz);
                if (o > c && cell_start[o] != cell_start[o + 1]) upper[count++] = o;
              }
            }
          }
          const auto end = upper.begin() + static_cast<std::ptrdiff_t>(count);
          std::sort(upper.begin(), end);
          fn(c, c);
          std::for_each(upper.begin(), std::unique(upper.begin(), end),
                        [&](std::size_t o) { fn(c, o); });
        }
      }
    }
  }
};

double sq(double v) { return v * v; }

}  // namespace

FofResult fof(std::span<const float> x, std::span<const float> y,
              std::span<const float> z, const FofParams& params, ThreadPool* pool) {
  TRACE_SPAN("analysis.fof");
  require(x.size() == y.size() && y.size() == z.size(), "fof: coordinate size mismatch");
  require(params.linking_length > 0.0, "fof: linking length must be positive");
  require(params.box > 0.0, "fof: box must be positive");
  const std::size_t n = x.size();
  const double b2 = sq(params.linking_length);

  const CellGrid grid(params.box, params.linking_length, params.periodic, x, y, z, pool);

  auto dist2 = [&](std::size_t a, std::size_t bq) {
    double dx = x[a] - x[bq];
    double dy = y[a] - y[bq];
    double dz = z[a] - z[bq];
    if (params.periodic) {
      const double half = params.box / 2.0;
      if (dx > half) dx -= params.box;
      if (dx < -half) dx += params.box;
      if (dy > half) dy -= params.box;
      if (dy < -half) dy += params.box;
      if (dz > half) dz -= params.box;
      if (dz < -half) dz += params.box;
    }
    return dx * dx + dy * dy + dz * dz;
  };

  // Link pass: visit every pair of neighboring cells once and link as we
  // go, so no friend pair is ever stored. A pair whose ends already share a
  // set cannot change the partition, so it skips the distance test; a cell
  // whose particles all share one set ("linked") skips whole rows. Sets
  // only merge, so a linked cell stays linked and the flag is cached. The
  // connected components do not depend on the visit order, so the
  // partition is a function of the input alone.
  DisjointSet ds(n);
  std::vector<std::uint8_t> linked(grid.cell_count(), 0);
  auto is_linked = [&](std::size_t c) {
    if (linked[c]) return true;
    const auto cell = grid.cell(c);
    const std::size_t root = ds.find(cell[0]);
    for (const std::uint32_t p : cell.subspan(1)) {
      if (ds.find(p) != root) return false;
    }
    linked[c] = 1;
    return true;
  };
  grid.for_each_cell_pair([&](std::size_t a, std::size_t b) {
    const bool self = a == b;
    const auto cell = grid.cell(a);
    const auto other = grid.cell(b);
    bool other_linked = is_linked(b);
    if (other_linked && (self || (is_linked(a) && ds.find(cell[0]) == ds.find(other[0])))) {
      return;
    }
    for (std::size_t ai = 0; ai < cell.size(); ++ai) {
      std::size_t root_a = ds.find(cell[ai]);
      if (other_linked && root_a == ds.find(other[0])) continue;
      bool merged = false;
      for (std::size_t bi = self ? ai + 1 : 0; bi < other.size(); ++bi) {
        const std::size_t root_b = ds.find(other[bi]);
        // Written as !(<=) so a NaN distance is never a friend.
        if (root_b == root_a || !(dist2(cell[ai], other[bi]) <= b2)) continue;
        ds.unite(root_a, root_b);
        merged = true;
        if (other_linked) break;  // cell[ai] now shares the set of all of other
        root_a = ds.find(root_a);
      }
      // Only a merge can link the other cell, so it is rechecked only then.
      if (merged && !other_linked && is_linked(b)) {
        if (self) return;
        other_linked = true;
      }
    }
  });

  // Degree pass (Most Connected Particle only): every candidate pair is
  // tested and counted in place, again without storing it.
  std::vector<std::uint32_t> degree;
  if (params.most_connected) {
    degree.assign(n, 0);
    grid.for_each_cell_pair([&](std::size_t a, std::size_t b) {
      const auto cell = grid.cell(a);
      const auto other = grid.cell(b);
      for (std::size_t ai = 0; ai < cell.size(); ++ai) {
        std::uint32_t friends = 0;
        for (std::size_t bi = a == b ? ai + 1 : 0; bi < other.size(); ++bi) {
          const std::uint32_t f = dist2(cell[ai], other[bi]) <= b2 ? 1 : 0;
          friends += f;
          degree[other[bi]] += f;
        }
        degree[cell[ai]] += friends;
      }
    });
  }

  // Collect halos in canonical order: a halo's id is the rank of its
  // smallest member index, so halo numbering never depends on union-find
  // internals (root choice). Members are listed in ascending particle order
  // (CSR, one slice per halo).
  std::vector<std::uint32_t> root_of(n);
  std::vector<std::uint32_t> group_size(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    root_of[p] = static_cast<std::uint32_t>(ds.find(p));
    ++group_size[root_of[p]];
  }
  std::vector<std::int32_t> halo_of_root(n, -1);
  std::vector<std::uint32_t> member_start{0};
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t root = root_of[p];
    if (group_size[root] >= params.min_members && halo_of_root[root] < 0) {
      halo_of_root[root] = static_cast<std::int32_t>(member_start.size() - 1);
      member_start.push_back(member_start.back() + group_size[root]);
    }
  }
  const std::size_t halo_count = member_start.size() - 1;

  FofResult result;
  result.grid_edge_cells = grid.edge_cells;
  result.halo_of_particle.assign(n, -1);
  result.halos.resize(halo_count);
  std::vector<std::uint32_t> members_flat(member_start.back());
  std::vector<std::uint32_t> cursor(member_start.begin(), member_start.end() - 1);
  for (std::size_t p = 0; p < n; ++p) {
    const std::int32_t h = halo_of_root[root_of[p]];
    result.halo_of_particle[p] = h;
    if (h >= 0) members_flat[cursor[h]++] = static_cast<std::uint32_t>(p);
  }

  // Per-halo reductions are independent and slot-indexed, so they fan out
  // across the pool; each halo's member traversal order is the CSR
  // (ascending particle) order regardless of threads.
  parallel_for(pool, halo_count, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t h = lo; h < hi; ++h) {
      const std::span<const std::uint32_t> members(members_flat.data() + member_start[h],
                                                   member_start[h + 1] - member_start[h]);
      Halo& halo = result.halos[h];
      halo.members = members.size();
      // Center of mass relative to the first member (handles box wrapping).
      const double rx = x[members[0]], ry = y[members[0]], rz = z[members[0]];
      double sx = 0.0, sy = 0.0, sz = 0.0;
      auto rel = [&](double v, double r) {
        double d = v - r;
        if (params.periodic) {
          const double half = params.box / 2.0;
          if (d > half) d -= params.box;
          if (d < -half) d += params.box;
        }
        return d;
      };
      for (const auto p : members) {
        sx += rel(x[p], rx);
        sy += rel(y[p], ry);
        sz += rel(z[p], rz);
      }
      const double inv = 1.0 / static_cast<double>(members.size());
      auto wrap_pos = [&](double v) {
        if (!params.periodic) return v;
        v = std::fmod(v, params.box);
        return v < 0.0 ? v + params.box : v;
      };
      halo.cx = wrap_pos(rx + sx * inv);
      halo.cy = wrap_pos(ry + sy * inv);
      halo.cz = wrap_pos(rz + sz * inv);

      if (params.most_connected) {
        std::size_t best = members[0];
        for (const auto p : members) {
          if (degree[p] > degree[best]) best = p;
        }
        halo.most_connected_particle = best;
      }
      if (params.most_bound) {
        // Potential of particle i ~ -sum_j 1/r_ij over (a sample of) members.
        std::vector<std::uint32_t> sample(members.begin(), members.end());
        if (sample.size() > params.potential_sample_cap) {
          const std::size_t stride = sample.size() / params.potential_sample_cap;
          std::vector<std::uint32_t> reduced;
          for (std::size_t i = 0; i < sample.size(); i += stride) reduced.push_back(sample[i]);
          sample.swap(reduced);
        }
        double best_pot = 1e300;
        std::size_t best = members[0];
        for (const auto p : members) {
          double pot = 0.0;
          for (const auto q : sample) {
            if (q == p) continue;
            const double d = std::sqrt(dist2(p, q)) + 1e-6;
            pot -= 1.0 / d;
          }
          if (pot < best_pot) {
            best_pot = pot;
            best = p;
          }
        }
        halo.most_bound_particle = best;
      }
    }
  }, /*min_grain=*/1);
  return result;
}

}  // namespace cosmo::analysis
