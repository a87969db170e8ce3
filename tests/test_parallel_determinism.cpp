/// \file test_parallel_determinism.cpp
/// \brief The PR's determinism guarantee, checked end to end: every
/// parallelized kernel must produce byte-identical compressed streams and
/// bitwise-identical analysis outputs for any thread count, on both HACC-
/// and Nyx-like synthetic data, including non-power-of-two shapes that
/// leave ragged chunk boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cic.hpp"
#include "analysis/fof.hpp"
#include "analysis/power_spectrum.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "fft/fft.hpp"
#include "foresight/compressor.hpp"
#include "gpu/sim.hpp"
#include "gpu/specs.hpp"
#include "random/rng.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace {

using namespace cosmo;

/// The thread counts under test: serial, even, and an awkward prime that
/// never divides the chunk counts evenly.
std::vector<std::unique_ptr<ThreadPool>> make_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // threads == 1
  pools.push_back(std::make_unique<ThreadPool>(2));
  pools.push_back(std::make_unique<ThreadPool>(7));
  return pools;
}

bool bytes_equal(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool floats_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Nyx-like smooth 3-D field; any shape (non-power-of-two allowed since the
/// codecs do not need the FFT).
std::vector<float> smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(100.0 * std::sin(0.02 * static_cast<double>(i)) +
                                 rng.normal());
  }
  return data;
}

TEST(ParallelDeterminism, ZfpStreamsByteIdenticalAcrossThreads) {
  // 50x33x27 -> 13x9x7 = 819 blocks: above the parallel threshold, ragged
  // on every axis. 64^3 covers the aligned case.
  for (const Dims& dims : {Dims::d3(50, 33, 27), Dims::d3(64, 64, 64)}) {
    const auto data = smooth_field(dims, 21);
    for (const zfp::Mode mode : {zfp::Mode::kFixedRate, zfp::Mode::kFixedAccuracy}) {
      zfp::Params params;
      params.mode = mode;
      params.rate = 8.0;
      params.tolerance = 0.05;
      const auto baseline = zfp::compress(data, dims, params);
      const auto baseline_recon = zfp::decompress(baseline);
      for (const auto& pool : make_pools()) {
        const auto bytes = zfp::compress(data, dims, params, nullptr, pool.get());
        EXPECT_TRUE(bytes_equal(bytes, baseline))
            << "zfp mode " << static_cast<int>(mode) << " stream differs";
        const auto recon = zfp::decompress(bytes, nullptr, pool.get());
        EXPECT_TRUE(floats_identical(recon, baseline_recon));
      }
    }
  }
}

TEST(ParallelDeterminism, SzStreamsByteIdenticalAcrossThreads) {
  for (const Dims& dims : {Dims::d3(50, 33, 27), Dims::d3(64, 64, 64)}) {
    const auto data = smooth_field(dims, 22);
    sz::Params params;
    params.abs_error_bound = 0.1;
    const auto baseline = sz::compress(data, dims, params);
    const auto baseline_recon = sz::decompress(baseline);
    for (const auto& pool : make_pools()) {
      const auto bytes = sz::compress(data, dims, params, nullptr, pool.get());
      EXPECT_TRUE(bytes_equal(bytes, baseline)) << "sz stream differs";
      const auto recon = sz::decompress(bytes, nullptr, pool.get());
      EXPECT_TRUE(floats_identical(recon, baseline_recon));
    }
  }
}

TEST(ParallelDeterminism, SzPwRelStreamsByteIdenticalAcrossThreads) {
  const Dims dims = Dims::d3(40, 25, 19);
  auto data = smooth_field(dims, 23);
  data[7] = 0.0f;  // exercise the zero-threshold class
  sz::PwRelParams params;
  params.pw_rel_bound = 0.01;
  const auto baseline = sz::compress_pwrel(data, dims, params);
  const auto baseline_recon = sz::decompress_pwrel(baseline);
  for (const auto& pool : make_pools()) {
    const auto bytes = sz::compress_pwrel(data, dims, params, nullptr, pool.get());
    EXPECT_TRUE(bytes_equal(bytes, baseline)) << "pw_rel stream differs";
    const auto recon = sz::decompress_pwrel(bytes, nullptr, pool.get());
    EXPECT_TRUE(floats_identical(recon, baseline_recon));
  }
}

TEST(ParallelDeterminism, HaccPositionFieldStreams) {
  // The HACC snapshot's 1-D position arrays, compressed directly (rank 1).
  HaccConfig config;
  config.particles = 60000;  // not a multiple of the 1-D block edge (128)
  config.seed = 9;
  const auto snapshot = generate_hacc(config);
  const auto& x = snapshot.find("x").field.data;
  const Dims dims = Dims::d1(x.size());
  sz::Params params;
  params.abs_error_bound = 1e-3;
  const auto baseline = sz::compress(x, dims, params);
  for (const auto& pool : make_pools()) {
    EXPECT_TRUE(bytes_equal(sz::compress(x, dims, params, nullptr, pool.get()), baseline));
  }
}

TEST(ParallelDeterminism, ChunkedHuffmanRoundtripAndIdentical) {
  Rng rng(31);
  // 100003 symbols with a 1000-symbol chunk: 101 chunks, last one ragged.
  std::vector<std::uint32_t> symbols(100003);
  for (auto& s : symbols) {
    s = 32768u + static_cast<std::uint32_t>(rng.uniform_index(64));
  }
  const auto baseline = huffman_encode_chunked(symbols, nullptr, 1000);
  ASSERT_TRUE(is_chunked_huffman(baseline));
  for (const auto& pool : make_pools()) {
    const auto bytes = huffman_encode_chunked(symbols, pool.get(), 1000);
    EXPECT_TRUE(bytes_equal(bytes, baseline));
    EXPECT_EQ(huffman_decode_chunked(bytes, pool.get()), symbols);
    // The generic decoder dispatches on the container magic.
    EXPECT_EQ(huffman_decode(bytes), symbols);
  }
}

TEST(ParallelDeterminism, ChunkedLzssRoundtripAndIdentical) {
  Rng rng(32);
  std::vector<std::uint8_t> input(300001);  // ragged against 4 KiB chunks
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 9) % 31 + rng.uniform_index(4));
  }
  const auto baseline = lzss_encode_chunked(input, nullptr, 4096);
  ASSERT_TRUE(is_chunked_lzss(baseline));
  for (const auto& pool : make_pools()) {
    const auto bytes = lzss_encode_chunked(input, pool.get(), 4096);
    EXPECT_TRUE(bytes_equal(bytes, baseline));
    EXPECT_EQ(lzss_decode_chunked(bytes, pool.get()), input);
    EXPECT_EQ(lzss_decode(bytes), input);
  }
}

/// Pools for the intra-chunk LZSS split: serial, one worker (never splits),
/// and counts that cut a chunk into 2, 3, 4 and 7 slices.
std::vector<std::unique_ptr<ThreadPool>> lzss_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t n : {1, 2, 3, 4, 7}) pools.push_back(std::make_unique<ThreadPool>(n));
  return pools;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return out;
}

/// The SZ stream before its LZSS stage (lossless off drops the stage; the
/// first byte is the stage flag).
std::vector<std::uint8_t> pre_lzss_stream(const Field& field, double range_fraction) {
  const auto [lo, hi] = std::minmax_element(field.data.begin(), field.data.end());
  sz::Params params;
  params.abs_error_bound = range_fraction * static_cast<double>(*hi - *lo);
  params.lossless = false;
  const auto bytes = sz::compress(field.data, field.dims, params);
  return {bytes.begin() + 1, bytes.end()};
}

/// Every pool must reproduce lzss_encode_reference: as one chunk holding
/// the whole input (so the pool splits that chunk), and through the default
/// 1 MiB chunk geometry against the serial path.
void expect_lzss_matches_reference(const std::vector<std::uint8_t>& input,
                                   const std::vector<std::unique_ptr<ThreadPool>>& pools,
                                   const std::string& what) {
  SCOPED_TRACE(what + ", " + std::to_string(input.size()) + " bytes");
  const auto reference = lzss_encode_reference(input);
  const auto serial = lzss_encode_chunked(input);
  const std::size_t whole = std::max<std::size_t>(input.size(), 1);
  for (const auto& pool : pools) {
    SCOPED_TRACE("pool " + std::to_string(pool ? pool->size() : 0));
    const auto one_chunk = lzss_encode_chunked(input, pool.get(), whole);
    // Container: 20-byte header, one 4-byte length, then the chunk stream.
    if (input.empty()) {
      EXPECT_EQ(one_chunk.size(), 20u);
    } else {
      ASSERT_EQ(one_chunk.size(), 24 + reference.size());
      EXPECT_TRUE(std::equal(reference.begin(), reference.end(), one_chunk.begin() + 24));
    }
    const auto chunked = lzss_encode_chunked(input, pool.get());
    EXPECT_TRUE(bytes_equal(chunked, serial));
    EXPECT_EQ(lzss_decode(chunked), input);
  }
}

TEST(ParallelDeterminism, LzssIntraChunkMatchesReference) {
  constexpr std::size_t kWindow = 1u << 16;
  constexpr std::size_t kMaxMatch = 259;
  constexpr std::size_t kChunk = 1u << 20;
  const auto pools = lzss_pools();

  for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{4}, kWindow - 1,
                              kWindow + 1, 2 * kWindow - 1, 2 * kWindow + 1, kChunk - 1,
                              kChunk + 1}) {
    expect_lzss_matches_reference(random_bytes(n, 40 + n), pools, "random");
  }
  expect_lzss_matches_reference(std::vector<std::uint8_t>(600001, 0), pools, "all zero");
  {
    std::vector<std::uint8_t> period3(600001);
    for (std::size_t i = 0; i < period3.size(); ++i) period3[i] = "abc"[i % 3];
    expect_lzss_matches_reference(period3, pools, "period 3");
  }
  {
    // One period more than the window: every repeat sits just out of reach.
    const auto period = random_bytes(kWindow + 1, 41);
    std::vector<std::uint8_t> input(600001);
    for (std::size_t i = 0; i < input.size(); ++i) input[i] = period[i % period.size()];
    expect_lzss_matches_reference(input, pools, "period 65537");
  }
  {
    // Short matches everywhere: slice and true parses need a few tokens to
    // meet.
    Rng rng(42);
    std::vector<std::uint8_t> input(700001);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<std::uint8_t>((i / 9) % 31 + rng.uniform_index(4));
    }
    expect_lzss_matches_reference(input, pools, "short repeats");
  }
  {
    // kMaxMatch-long matches straddling every slice start a one-chunk
    // split of 1 MiB can have (len * j / m for m = 2..7 slices), and a run
    // of back-to-back ones across each.
    auto input = random_bytes(kChunk, 43);
    for (std::size_t m = 2; m <= 7; ++m) {
      for (std::size_t j = 1; j < m; ++j) {
        const std::size_t start = kChunk * j / m;
        const std::size_t at = start - kMaxMatch / 2 - 3 * m;
        const std::size_t from = at - 1000 - 17 * j;
        std::copy_n(input.begin() + static_cast<std::ptrdiff_t>(from), 4 * kMaxMatch,
                    input.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    expect_lzss_matches_reference(input, pools, "straddling matches");
  }

  NyxConfig config;
  config.dim = 64;
  config.seed = 44;
  const auto nyx = generate_nyx(config);
  // The Huffman-coded SZ stream at a typical bound (LZSS does not pack it),
  // and, at 1e-1 of the range where LZSS does pack, the six fields' streams
  // back to back (one is too short to split).
  expect_lzss_matches_reference(pre_lzss_stream(nyx.find("baryon_density").field, 1e-3),
                                pools, "nyx baryon_density SZ stream");
  std::vector<std::uint8_t> packing;
  for (const char* name : kNyxFieldNames) {
    const auto stream = pre_lzss_stream(nyx.find(name).field, 1e-1);
    packing.insert(packing.end(), stream.begin(), stream.end());
  }
  ASSERT_LT(lzss_encode(packing).size(), packing.size());
  expect_lzss_matches_reference(packing, pools, "nyx SZ streams at 1e-1");

  // And through SZ itself: every field's stream is byte-identical across
  // pools at 1e-1, where the densities and temperature keep the LZSS stage.
  std::size_t packed = 0;
  for (const char* name : kNyxFieldNames) {
    SCOPED_TRACE(name);
    const Field& field = nyx.find(name).field;
    const auto [lo, hi] = std::minmax_element(field.data.begin(), field.data.end());
    sz::Params params;
    params.abs_error_bound = 1e-1 * static_cast<double>(*hi - *lo);
    const auto baseline = sz::compress(field.data, field.dims, params);
    packed += baseline.front();
    for (const auto& pool : pools) {
      EXPECT_TRUE(
          bytes_equal(sz::compress(field.data, field.dims, params, nullptr, pool.get()),
                      baseline));
    }
  }
  EXPECT_GE(packed, 3u);
}

/// One device-codec session's results over a fixed call sequence. Each run
/// gets its own identically seeded simulator (and fault plan), so the
/// modeled timings line up exactly iff the pool leaves the draws alone.
struct DeviceRun {
  std::vector<foresight::CompressResult> compressed;
  std::vector<foresight::DecompressResult> decompressed;
};

DeviceRun run_device_session(const std::string& codec, const io::Container& data,
                             ThreadPool* pool, const fault::Config* faults) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  std::optional<fault::FaultPlan> plan;
  if (faults != nullptr) {
    plan.emplace(*faults);
    sim.set_fault_plan(&*plan);
  }
  const auto compressor = foresight::make_compressor(codec, &sim);
  const auto session = compressor->open_session(nullptr, pool);
  EXPECT_EQ(session->pool(), pool);
  DeviceRun run;
  for (const char* name : {"baryon_density", "temperature", "velocity_x", "dark_matter_density"}) {
    const Field& field = data.find(name).field;
    const auto [lo, hi] = std::minmax_element(field.data.begin(), field.data.end());
    const foresight::CompressorConfig config =
        codec == "cuzfp" ? foresight::CompressorConfig{"rate", 8.0}
                         : foresight::CompressorConfig{"abs", 1e-3 * (*hi - *lo)};
    run.compressed.push_back(session->compress(field, config));
    run.decompressed.push_back(session->decompress(run.compressed.back()));
  }
  return run;
}

void expect_same_stage(const StageTelemetry& a, const StageTelemetry& b) {
  EXPECT_EQ(a.has_gpu_timing, b.has_gpu_timing);
  EXPECT_EQ(a.cpu_fallback, b.cpu_fallback);
  EXPECT_EQ(a.device_attempts, b.device_attempts);
  EXPECT_EQ(a.gpu_timing.init, b.gpu_timing.init);
  EXPECT_EQ(a.gpu_timing.kernel, b.gpu_timing.kernel);
  EXPECT_EQ(a.gpu_timing.memcpy, b.gpu_timing.memcpy);
  EXPECT_EQ(a.gpu_timing.free, b.gpu_timing.free);
  // Modeled seconds are exact; a fallback's are measured host wall time.
  if (!a.cpu_fallback) {
    EXPECT_EQ(a.seconds, b.seconds);
  }
}

TEST(ParallelDeterminism, DeviceSessionsMatchAcrossPools) {
  NyxConfig config;
  config.dim = 64;
  config.seed = 45;
  const auto data = generate_nyx(config);
  fault::Config faults;
  faults.gpu_transient_every = 3;
  faults.gpu_oom_every = 4;
  const fault::Config* const plans[] = {nullptr, &faults};
  for (const fault::Config* plan : plans) {
    for (const std::string codec : {"gpu-sz", "cuzfp", "fz-gpu"}) {
      SCOPED_TRACE(codec + (plan ? " with faults" : ""));
      const DeviceRun baseline = run_device_session(codec, data, nullptr, plan);
      bool retried = false;
      bool fell_back = false;
      for (const auto& c : baseline.compressed) {
        retried |= c.telemetry.device_attempts > 1;
        fell_back |= c.telemetry.cpu_fallback;
      }
      for (const auto& d : baseline.decompressed) {
        retried |= d.telemetry.device_attempts > 1;
        fell_back |= d.telemetry.cpu_fallback;
      }
      EXPECT_EQ(retried, plan != nullptr);
      EXPECT_EQ(fell_back, plan != nullptr);
      for (const std::size_t threads : {2, 7}) {
        ThreadPool pool(threads);
        const DeviceRun run = run_device_session(codec, data, &pool, plan);
        ASSERT_EQ(run.compressed.size(), baseline.compressed.size());
        for (std::size_t i = 0; i < run.compressed.size(); ++i) {
          SCOPED_TRACE("call " + std::to_string(i) + ", " + std::to_string(threads) + " threads");
          const auto& c = run.compressed[i];
          const auto& d = run.decompressed[i];
          EXPECT_TRUE(bytes_equal(c.bytes, baseline.compressed[i].bytes));
          EXPECT_EQ(c.throughput_reportable, baseline.compressed[i].throughput_reportable);
          expect_same_stage(c.telemetry, baseline.compressed[i].telemetry);
          EXPECT_TRUE(floats_identical(d.values, baseline.decompressed[i].values));
          expect_same_stage(d.telemetry, baseline.decompressed[i].telemetry);
        }
      }
    }
  }
}

TEST(ParallelDeterminism, PowerSpectrumBitwiseIdenticalAcrossThreads) {
  NyxConfig config;
  config.dim = 32;
  config.seed = 5;
  const Field delta = generate_nyx_delta(config);
  const auto baseline = analysis::power_spectrum(delta.data, delta.dims);
  ASSERT_FALSE(baseline.empty());
  for (const auto& pool : make_pools()) {
    const auto bins = analysis::power_spectrum(delta.data, delta.dims, 0, pool.get());
    ASSERT_EQ(bins.size(), baseline.size());
    for (std::size_t i = 0; i < bins.size(); ++i) {
      EXPECT_EQ(bins[i].modes, baseline[i].modes);
      // Bitwise: the fixed z-order reduction must make these exact.
      EXPECT_EQ(std::memcmp(&bins[i].k, &baseline[i].k, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&bins[i].power, &baseline[i].power, sizeof(double)), 0);
    }
  }
}

TEST(ParallelDeterminism, CicAndFofBitwiseIdenticalAcrossThreads) {
  HaccConfig config;
  config.particles = 30000;
  config.seed = 3;
  const auto snapshot = generate_hacc(config);
  const auto& x = snapshot.find("x").field.data;
  const auto& y = snapshot.find("y").field.data;
  const auto& z = snapshot.find("z").field.data;

  const Field cic_baseline = analysis::cic_deposit(x, y, z, config.box, 48);
  analysis::FofParams fof_params;
  fof_params.linking_length = 1.5;
  fof_params.box = config.box;
  fof_params.most_connected = true;
  fof_params.most_bound = true;
  const auto fof_baseline = analysis::fof(x, y, z, fof_params);
  ASSERT_FALSE(fof_baseline.halos.empty());

  for (const auto& pool : make_pools()) {
    const Field cic = analysis::cic_deposit(x, y, z, config.box, 48, pool.get());
    EXPECT_TRUE(floats_identical(cic.data, cic_baseline.data));

    const auto fof = analysis::fof(x, y, z, fof_params, pool.get());
    EXPECT_EQ(fof.halo_of_particle, fof_baseline.halo_of_particle);
    EXPECT_EQ(fof.grid_edge_cells, fof_baseline.grid_edge_cells);
    ASSERT_EQ(fof.halos.size(), fof_baseline.halos.size());
    for (std::size_t h = 0; h < fof.halos.size(); ++h) {
      EXPECT_EQ(fof.halos[h].members, fof_baseline.halos[h].members);
      EXPECT_EQ(std::memcmp(&fof.halos[h].cx, &fof_baseline.halos[h].cx,
                            3 * sizeof(double)),
                0);
      EXPECT_EQ(fof.halos[h].most_connected_particle,
                fof_baseline.halos[h].most_connected_particle);
      EXPECT_EQ(fof.halos[h].most_bound_particle,
                fof_baseline.halos[h].most_bound_particle);
    }
  }
}

TEST(ParallelDeterminism, PkRatioBitwiseIdenticalAcrossThreads) {
  NyxConfig config;
  config.dim = 32;
  config.seed = 6;
  const Field delta = generate_nyx_delta(config);
  sz::Params params;
  params.abs_error_bound = 0.05;
  const auto recon = sz::decompress(sz::compress(delta.data, delta.dims, params));
  const auto baseline = analysis::pk_ratio(delta.data, recon, delta.dims, 0.5);
  for (const auto& pool : make_pools()) {
    const auto r = analysis::pk_ratio(delta.data, recon, delta.dims, 0.5, pool.get());
    ASSERT_EQ(r.ratio.size(), baseline.ratio.size());
    EXPECT_EQ(std::memcmp(&r.max_deviation, &baseline.max_deviation, sizeof(double)), 0);
    for (std::size_t i = 0; i < r.ratio.size(); ++i) {
      EXPECT_EQ(std::memcmp(&r.ratio[i], &baseline.ratio[i], sizeof(double)), 0);
    }
  }
}

TEST(FftTwiddleCache, MatchesDftReferenceAcrossCachedSizes) {
  Rng rng(41);
  for (const std::size_t n : {2u, 8u, 32u, 128u, 512u}) {
    std::vector<cplx> data(n);
    for (auto& v : data) v = cplx(rng.normal(), rng.normal());
    const auto want = dft_reference(data, false);
    // Two passes per size: the second is guaranteed to hit the cache and
    // must produce exactly the same answer.
    for (int pass = 0; pass < 2; ++pass) {
      auto got = data;
      fft_1d(got, false);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i].real(), want[i].real(), 1e-9 * static_cast<double>(n));
        EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-9 * static_cast<double>(n));
      }
      // Inverse through the cached conjugate path restores the input.
      fft_1d(got, true);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i].real(), data[i].real(), 1e-10 * static_cast<double>(n));
        EXPECT_NEAR(got[i].imag(), data[i].imag(), 1e-10 * static_cast<double>(n));
      }
    }
  }
  // All five sizes must now be resident (the cache is process-wide, so
  // other tests may have added more).
  EXPECT_GE(fft_twiddle_cache_entries(), 5u);
}

TEST(FftTwiddleCache, Fft3dBitwiseIdenticalAcrossThreads) {
  const Dims dims = Dims::d3(16, 8, 32);
  Rng rng(42);
  std::vector<cplx> data(dims.count());
  for (auto& v : data) v = cplx(rng.normal(), rng.normal());
  auto baseline = data;
  fft_3d(baseline, dims, false);
  for (const auto& pool : make_pools()) {
    auto work = data;
    fft_3d(work, dims, false, pool.get());
    ASSERT_EQ(work.size(), baseline.size());
    EXPECT_EQ(std::memcmp(work.data(), baseline.data(), work.size() * sizeof(cplx)), 0);
  }
}

}  // namespace
