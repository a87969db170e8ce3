#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "analysis/fof.hpp"
#include "cosmo/hacc_synth.hpp"
#include "random/rng.hpp"

namespace cosmo::analysis {
namespace {

/// Builds particle clouds: each cluster is a tight Gaussian blob.
struct Cloud {
  std::vector<float> x, y, z;

  void add_blob(Rng& rng, double cx, double cy, double cz, std::size_t n, double sigma) {
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(static_cast<float>(cx + rng.normal(0.0, sigma)));
      y.push_back(static_cast<float>(cy + rng.normal(0.0, sigma)));
      z.push_back(static_cast<float>(cz + rng.normal(0.0, sigma)));
    }
  }

  void add_uniform(Rng& rng, std::size_t n, double box) {
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(static_cast<float>(rng.uniform(0.0, box)));
      y.push_back(static_cast<float>(rng.uniform(0.0, box)));
      z.push_back(static_cast<float>(rng.uniform(0.0, box)));
    }
  }
};

/// O(n^2) FoF: the same distance predicate (coordinate differences taken in
/// float, wrapped once across a periodic box), a union over every friend
/// pair, halos numbered by smallest member, centres summed in ascending
/// member order, and the Most Connected Particle as the first member of
/// maximum degree.
FofResult reference_fof(const Cloud& c, const FofParams& params) {
  const std::size_t n = c.x.size();
  auto wrap_delta = [&](double d) {
    if (params.periodic) {
      if (d > params.box / 2.0) d -= params.box;
      if (d < -params.box / 2.0) d += params.box;
    }
    return d;
  };
  DisjointSet ds(n);
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = wrap_delta(c.x[i] - c.x[j]);
      const double dy = wrap_delta(c.y[i] - c.y[j]);
      const double dz = wrap_delta(c.z[i] - c.z[j]);
      if (dx * dx + dy * dy + dz * dz <= params.linking_length * params.linking_length) {
        ds.unite(i, j);
        ++degree[i];
        ++degree[j];
      }
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of_root(n, n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t& g = group_of_root[ds.find(p)];
    if (g == n) {
      g = groups.size();
      groups.emplace_back();
    }
    groups[g].push_back(p);
  }
  FofResult result;
  result.halo_of_particle.assign(n, -1);
  for (const auto& members : groups) {
    if (members.size() < params.min_members) continue;
    Halo halo;
    halo.members = members.size();
    const double rx = c.x[members[0]], ry = c.y[members[0]], rz = c.z[members[0]];
    double sx = 0.0, sy = 0.0, sz = 0.0;
    halo.most_connected_particle = members[0];
    for (const std::size_t p : members) {
      sx += wrap_delta(c.x[p] - rx);
      sy += wrap_delta(c.y[p] - ry);
      sz += wrap_delta(c.z[p] - rz);
      if (degree[p] > degree[halo.most_connected_particle]) halo.most_connected_particle = p;
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
    for (const std::size_t p : members) {
      result.halo_of_particle[p] = static_cast<std::int32_t>(result.halos.size());
    }
    result.halos.push_back(halo);
  }
  return result;
}

TEST(DisjointSetTest, BasicUnionFind) {
  DisjointSet ds(10);
  EXPECT_NE(ds.find(1), ds.find(2));
  EXPECT_TRUE(ds.unite(1, 2));
  EXPECT_EQ(ds.find(1), ds.find(2));
  EXPECT_FALSE(ds.unite(1, 2));  // already merged
  ds.unite(2, 3);
  ds.unite(7, 8);
  EXPECT_EQ(ds.find(1), ds.find(3));
  EXPECT_NE(ds.find(1), ds.find(7));
  ds.unite(3, 8);
  EXPECT_EQ(ds.find(1), ds.find(7));
}

TEST(Fof, FindsTwoSeparatedBlobs) {
  Rng rng(141);
  Cloud cloud;
  cloud.add_blob(rng, 50, 50, 50, 200, 0.5);
  cloud.add_blob(rng, 150, 150, 150, 100, 0.5);
  FofParams params;
  params.linking_length = 2.0;
  params.min_members = 20;
  params.box = 256.0;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(result.halos.size(), 2u);
  // Counts (order not guaranteed): one of 200, one of 100.
  const std::size_t a = result.halos[0].members;
  const std::size_t b = result.halos[1].members;
  EXPECT_EQ(a + b, 300u);
  EXPECT_EQ(std::max(a, b), 200u);
}

TEST(Fof, CentersAreAccurate) {
  Rng rng(142);
  Cloud cloud;
  cloud.add_blob(rng, 100, 60, 200, 500, 0.8);
  FofParams params;
  params.linking_length = 3.0;
  params.min_members = 50;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(result.halos.size(), 1u);
  EXPECT_NEAR(result.halos[0].cx, 100.0, 0.5);
  EXPECT_NEAR(result.halos[0].cy, 60.0, 0.5);
  EXPECT_NEAR(result.halos[0].cz, 200.0, 0.5);
}

TEST(Fof, MinMembersFiltersSmallGroups) {
  Rng rng(143);
  Cloud cloud;
  cloud.add_blob(rng, 50, 50, 50, 100, 0.5);
  cloud.add_blob(rng, 150, 150, 150, 5, 0.2);  // below threshold
  FofParams params;
  params.linking_length = 2.0;
  params.min_members = 10;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(result.halos.size(), 1u);
  // The 5 small-group particles map to -1.
  std::size_t unassigned = 0;
  for (const auto id : result.halo_of_particle) {
    if (id < 0) ++unassigned;
  }
  EXPECT_EQ(unassigned, 5u);
}

TEST(Fof, UniformBackgroundYieldsNoHalos) {
  Rng rng(144);
  Cloud cloud;
  cloud.add_uniform(rng, 2000, 256.0);
  FofParams params;
  // Mean spacing ~ (256^3/2000)^(1/3) ~ 20; a short linking length finds
  // only tiny chance groups.
  params.linking_length = 1.5;
  params.min_members = 10;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  EXPECT_EQ(result.halos.size(), 0u);
}

TEST(Fof, PeriodicBoundaryMergesAcrossEdge) {
  Rng rng(145);
  Cloud cloud;
  // Two half-blobs hugging opposite faces of the box along x.
  cloud.add_blob(rng, 0.5, 100, 100, 100, 0.3);
  cloud.add_blob(rng, 255.5, 100, 100, 100, 0.3);
  FofParams params;
  params.linking_length = 2.0;
  params.min_members = 50;
  params.box = 256.0;
  params.periodic = true;
  const FofResult wrapped = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(wrapped.halos.size(), 1u);
  EXPECT_EQ(wrapped.halos[0].members, 200u);
  // Center must sit near the seam (x ~ 0 or ~ 256).
  const double cx = wrapped.halos[0].cx;
  EXPECT_TRUE(cx < 3.0 || cx > 253.0) << cx;

  params.periodic = false;
  const FofResult unwrapped = fof(cloud.x, cloud.y, cloud.z, params);
  EXPECT_EQ(unwrapped.halos.size(), 2u);
}

TEST(Fof, ChainOfParticlesLinksTransitively) {
  // Particles spaced 0.9 apart with b = 1.0 form one chain-halo even though
  // the endpoints are far apart ("a group of particles in one chain").
  std::vector<float> x, y, z;
  for (int i = 0; i < 50; ++i) {
    x.push_back(10.0f + 0.9f * static_cast<float>(i));
    y.push_back(10.0f);
    z.push_back(10.0f);
  }
  FofParams params;
  params.linking_length = 1.0;
  params.min_members = 10;
  const FofResult result = fof(x, y, z, params);
  ASSERT_EQ(result.halos.size(), 1u);
  EXPECT_EQ(result.halos[0].members, 50u);
}

TEST(Fof, LinkingLengthJustBelowSpacingBreaksChain) {
  std::vector<float> x, y, z;
  for (int i = 0; i < 50; ++i) {
    x.push_back(10.0f + 0.9f * static_cast<float>(i));
    y.push_back(10.0f);
    z.push_back(10.0f);
  }
  FofParams params;
  params.linking_length = 0.85;  // below the 0.9 spacing
  params.min_members = 10;
  const FofResult result = fof(x, y, z, params);
  EXPECT_EQ(result.halos.size(), 0u);
}

TEST(Fof, MostConnectedParticleIsInDenseCore) {
  Rng rng(146);
  Cloud cloud;
  cloud.add_blob(rng, 100, 100, 100, 300, 1.5);
  FofParams params;
  params.linking_length = 2.0;
  params.min_members = 50;
  params.most_connected = true;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(result.halos.size(), 1u);
  const std::size_t mcp = result.halos[0].most_connected_particle;
  // The most connected particle should sit near the blob center.
  const double d = std::sqrt(std::pow(cloud.x[mcp] - 100.0, 2) +
                             std::pow(cloud.y[mcp] - 100.0, 2) +
                             std::pow(cloud.z[mcp] - 100.0, 2));
  EXPECT_LT(d, 2.0);
}

TEST(Fof, MostBoundParticleIsInDenseCore) {
  Rng rng(147);
  Cloud cloud;
  cloud.add_blob(rng, 60, 60, 60, 300, 1.5);
  FofParams params;
  params.linking_length = 2.0;
  params.min_members = 50;
  params.most_bound = true;
  const FofResult result = fof(cloud.x, cloud.y, cloud.z, params);
  ASSERT_EQ(result.halos.size(), 1u);
  const std::size_t mbp = result.halos[0].most_bound_particle;
  const double d = std::sqrt(std::pow(cloud.x[mbp] - 60.0, 2) +
                             std::pow(cloud.y[mbp] - 60.0, 2) +
                             std::pow(cloud.z[mbp] - 60.0, 2));
  EXPECT_LT(d, 2.5);
}

TEST(Fof, RecoversGeneratorTruthApproximately) {
  HaccConfig config;
  config.particles = 30000;
  config.halo_count = 12;
  config.clustered_fraction = 0.7;
  std::vector<HaloTruth> truth;
  const auto data = generate_hacc(config, &truth);
  FofParams params;
  params.linking_length = 1.0;
  params.min_members = 15;
  const FofResult result =
      fof(data.find("x").field.data, data.find("y").field.data,
          data.find("z").field.data, params);
  // FoF should find a halo near most generated centers.
  std::size_t matched = 0;
  for (const auto& t : truth) {
    for (const auto& h : result.halos) {
      const double d = std::sqrt(std::pow(h.cx - t.cx, 2) + std::pow(h.cy - t.cy, 2) +
                                 std::pow(h.cz - t.cz, 2));
      if (d < 3.0) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(matched * 10, truth.size() * 7);  // >= 70% recovered
}

TEST(Fof, MatchesBruteForceReferenceOnEveryGridShape) {
  struct Case {
    double box, linking_length;
    std::size_t particles, expected_edge;
  };
  // Grid edges 1, 2 and 3 (every offset wraps onto a few cells), one with
  // cells exactly one linking length wide, and one capped at cbrt(4n).
  const Case cases[] = {
      {8.0, 5.0, 40, 1}, {8.0, 3.0, 40, 2}, {9.0, 3.0, 60, 3}, {16.0, 2.0, 150, 8},
      {64.0, 1.0, 400, 11},
  };
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // threads == 1
  pools.push_back(std::make_unique<ThreadPool>(2));
  pools.push_back(std::make_unique<ThreadPool>(7));
  for (const Case& k : cases) {
    for (const bool periodic : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "box " << k.box << " b " << k.linking_length
                                          << " periodic " << periodic << " seed " << seed);
        Rng rng(seed * 977 + static_cast<std::uint64_t>(k.box));
        const double b = k.linking_length;
        Cloud cloud;
        // Clusters, one of them straddling the x = 0 face (wrapped into the
        // box), over a uniform background.
        cloud.add_blob(rng, 0.3 * k.box, 0.6 * k.box, 0.4 * k.box, k.particles / 4, 0.6 * b);
        cloud.add_blob(rng, 0.1 * b, 0.2 * k.box, 0.7 * k.box, k.particles / 4, 0.6 * b);
        cloud.add_uniform(rng, k.particles / 2, k.box);
        for (std::vector<float>* axis : {&cloud.x, &cloud.y, &cloud.z}) {
          for (float& v : *axis) {
            const double w = std::fmod(static_cast<double>(v), k.box);
            v = static_cast<float>(w < 0.0 ? w + k.box : w);
          }
        }
        // Particles exactly on the faces and slightly outside them, as a
        // lossy reconstruction of in-box positions produces.
        for (int i = 0; i < 12; ++i) {
          cloud.add_uniform(rng, 1, k.box);
          const double out = rng.uniform(0.0, 1e-3 * b);
          const double face = i % 4 == 0   ? 0.0
                              : i % 4 == 1 ? k.box
                              : i % 4 == 2 ? -out
                                           : k.box + out;
          std::vector<float>& axis = i % 3 == 0 ? cloud.x : i % 3 == 1 ? cloud.y : cloud.z;
          axis.back() = static_cast<float>(face);
        }
        // A pair exactly one linking length apart.
        cloud.x.push_back(1.0f);
        cloud.y.push_back(0.5f);
        cloud.z.push_back(0.5f);
        cloud.x.push_back(static_cast<float>(1.0 + b));
        cloud.y.push_back(0.5f);
        cloud.z.push_back(0.5f);

        FofParams params;
        params.linking_length = b;
        params.box = k.box;
        params.periodic = periodic;
        params.min_members = 2;
        const FofResult expected = reference_fof(cloud, params);
        for (const bool most_connected : {false, true}) {
          params.most_connected = most_connected;
          for (const auto& pool : pools) {
            const FofResult got = fof(cloud.x, cloud.y, cloud.z, params, pool.get());
            EXPECT_EQ(got.grid_edge_cells, k.expected_edge);
            EXPECT_EQ(got.halo_of_particle, expected.halo_of_particle);
            ASSERT_EQ(got.halos.size(), expected.halos.size());
            for (std::size_t h = 0; h < got.halos.size(); ++h) {
              EXPECT_EQ(got.halos[h].members, expected.halos[h].members);
              EXPECT_EQ(
                  std::memcmp(&got.halos[h].cx, &expected.halos[h].cx, 3 * sizeof(double)), 0);
              if (most_connected) {
                EXPECT_EQ(got.halos[h].most_connected_particle,
                          expected.halos[h].most_connected_particle)
                    << "halo " << h;
              }
            }
          }
        }
      }
    }
  }
}

// Non-finite and huge coordinates bin into an edge cell without overflowing
// the cell index, never link (not even to each other), and leave the
// catalog of the finite particles as it was. Blobs sit at both box corners
// so the edge cells they land in are populated.
TEST(Fof, NonFiniteCoordinatesNeverLink) {
  Rng rng(151);
  Cloud cloud;
  cloud.add_blob(rng, 1.0, 1.0, 1.0, 60, 0.4);
  cloud.add_blob(rng, 63.0, 63.0, 63.0, 60, 0.4);
  cloud.add_blob(rng, 32.0, 32.0, 32.0, 60, 0.4);
  cloud.add_uniform(rng, 200, 64.0);
  const std::size_t n_finite = cloud.x.size();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float bad[] = {nan, nan, inf, inf, -inf, -inf, 3e38f};
  for (const float v : bad) {
    // The bad value on one axis, then on all three.
    cloud.x.push_back(v), cloud.y.push_back(1.0f), cloud.z.push_back(1.0f);
    cloud.x.push_back(v), cloud.y.push_back(v), cloud.z.push_back(v);
  }
  const std::span<const float> fx(cloud.x.data(), n_finite), fy(cloud.y.data(), n_finite),
      fz(cloud.z.data(), n_finite);
  ThreadPool pool(2);
  for (const bool periodic : {true, false}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      FofParams params;
      params.linking_length = 1.0;
      params.min_members = 2;
      params.box = 64.0;
      params.periodic = periodic;
      params.most_connected = true;
      const FofResult expected = fof(fx, fy, fz, params, p);
      const FofResult got = fof(cloud.x, cloud.y, cloud.z, params, p);
      ASSERT_GE(expected.halos.size(), 3u);
      for (std::size_t i = n_finite; i < cloud.x.size(); ++i) {
        EXPECT_EQ(got.halo_of_particle[i], -1) << "particle " << i;
      }
      EXPECT_TRUE(std::equal(expected.halo_of_particle.begin(), expected.halo_of_particle.end(),
                             got.halo_of_particle.begin()));
      ASSERT_EQ(got.halos.size(), expected.halos.size());
      for (std::size_t h = 0; h < got.halos.size(); ++h) {
        EXPECT_EQ(got.halos[h].members, expected.halos[h].members);
        EXPECT_EQ(std::memcmp(&got.halos[h].cx, &expected.halos[h].cx, 3 * sizeof(double)), 0);
        EXPECT_EQ(got.halos[h].most_connected_particle,
                  expected.halos[h].most_connected_particle);
      }
    }
  }
}

TEST(Fof, InvalidParamsRejected) {
  const std::vector<float> p = {1.0f, 2.0f};
  FofParams params;
  params.linking_length = 0.0;
  EXPECT_THROW(fof(p, p, p, params), InvalidArgument);
  params.linking_length = 1.0;
  params.box = -1.0;
  EXPECT_THROW(fof(p, p, p, params), InvalidArgument);
  const std::vector<float> q = {1.0f};
  params.box = 10.0;
  EXPECT_THROW(fof(p, q, p, params), InvalidArgument);
}

}  // namespace
}  // namespace cosmo::analysis
