// Allocation-count regression tests for the codec hot paths. A codec call
// allocates its output, its tables and a few per-stage buffers; none of that
// depends on the input size, so the count must stay flat when the input grows
// from 2^16 to 2^18 values. A per-element allocation (a check that builds its
// message before testing, a temporary per symbol) shows up as a count that
// grows with the input.
//
// This file replaces the global operator new to count calls, so it builds
// into its own executable and the replacement affects no other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/error.hpp"
#include "fz/fz.hpp"
#include "random/rng.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace cosmo {
namespace {

constexpr std::size_t kSmall = std::size_t{1} << 16;
constexpr std::size_t kLarge = std::size_t{1} << 18;
/// Allowed growth in the count from kSmall to kLarge values: an output
/// vector that grows by doubling reallocates about twice more at 4x the
/// input (sz::compress reads 118 -> 132), never once per element.
constexpr std::size_t kSlack = 16;

/// Heap allocations made by \p fn.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Skewed symbols in the shape of SZ quantization codes.
std::vector<std::uint32_t> quant_codes(std::size_t n) {
  Rng rng(7);
  std::vector<std::uint32_t> out(n);
  for (auto& s : out) s = 32768 + static_cast<std::uint32_t>(std::lround(rng.normal(0.0, 6.0)));
  return out;
}

/// A smooth 3-D field with noise, 64 x 64 x (n / 4096).
std::vector<float> smooth_field(std::size_t n, Dims* dims) {
  *dims = Dims::d3(64, 64, n / 4096);
  Rng rng(11);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % 64), y = static_cast<double>((i / 64) % 64),
                 z = static_cast<double>(i / 4096);
    out[i] = static_cast<float>(std::sin(0.2 * x) * std::cos(0.15 * y) + 0.05 * z +
                                rng.normal(0.0, 0.01));
  }
  return out;
}

/// Counts for \p run at kSmall and kLarge values; the second call of each
/// size is counted, so lazily built process-wide tables do not show.
template <typename Run>
void expect_flat(const char* what, Run&& run) {
  std::size_t counts[2] = {};
  const std::size_t sizes[2] = {kSmall, kLarge};
  for (int i = 0; i < 2; ++i) {
    (void)run(sizes[i]);
    counts[i] = run(sizes[i]);
  }
  EXPECT_LE(counts[1], counts[0] + kSlack)
      << what << ": " << counts[0] << " allocations at 2^16 values, " << counts[1]
      << " at 2^18";
}

TEST(AllocCounts, HuffmanEncodeAndDecodeStayFlat) {
  expect_flat("huffman_encode", [](std::size_t n) {
    const auto symbols = quant_codes(n);
    return allocations_of([&] { (void)huffman_encode(symbols); });
  });
  expect_flat("huffman_decode", [](std::size_t n) {
    const auto bytes = huffman_encode(quant_codes(n));
    return allocations_of([&] { (void)huffman_decode(bytes); });
  });
}

TEST(AllocCounts, ChunkedLzssDecodeStaysFlat) {
  expect_flat("lzss_decode_chunked", [](std::size_t n) {
    const auto symbols = quant_codes(n);
    std::vector<std::uint8_t> raw(n * sizeof(std::uint32_t));
    std::memcpy(raw.data(), symbols.data(), raw.size());
    const auto bytes = lzss_encode_chunked(raw);
    return allocations_of([&] { (void)lzss_decode_chunked(bytes); });
  });
}

TEST(AllocCounts, SzCompressAndDecompressStayFlat) {
  sz::Params params;
  params.abs_error_bound = 1e-3;
  expect_flat("sz::compress", [&](std::size_t n) {
    Dims dims;
    const auto field = smooth_field(n, &dims);
    return allocations_of([&] { (void)sz::compress(field, dims, params); });
  });
  expect_flat("sz::decompress", [&](std::size_t n) {
    Dims dims;
    const auto bytes = sz::compress(smooth_field(n, &dims), dims, params);
    return allocations_of([&] { (void)sz::decompress(bytes); });
  });
}

TEST(AllocCounts, ZfpDecompressStaysFlat) {
  zfp::Params rate;
  rate.mode = zfp::Mode::kFixedRate;
  rate.rate = 8.0;
  zfp::Params accuracy;
  accuracy.mode = zfp::Mode::kFixedAccuracy;
  accuracy.tolerance = 1e-3;
  for (const zfp::Params& params : {rate, accuracy}) {
    expect_flat("zfp::decompress", [&](std::size_t n) {
      Dims dims;
      const auto bytes = zfp::compress(smooth_field(n, &dims), dims, params);
      return allocations_of([&] { (void)zfp::decompress(bytes); });
    });
  }
}

// One chunk spans the whole input, so the count cannot hide behind the
// chunk count. The chunk's zero-run stream reserves its worst case (bitmap
// plus every group) once, so its allocation count does not even depend on
// how many groups are nonzero: all-zero and all-nonzero planes match.
TEST(AllocCounts, FzCompressStaysFlat) {
  fz::Params params;
  params.abs_error_bound = 1e-3;
  expect_flat("fz::compress", [&](std::size_t n) {
    Dims dims;
    const auto field = smooth_field(n, &dims);
    params.chunk_values = n;
    return allocations_of([&] { (void)fz::compress(field, dims, params); });
  });
  const std::vector<std::uint8_t> zero(kLarge, 0);
  const std::vector<std::uint8_t> dense(kLarge, 1);
  EXPECT_EQ(allocations_of([&] { (void)fz::zero_run_encode(dense); }),
            allocations_of([&] { (void)fz::zero_run_encode(zero); }));
}

// The counter sees the allocations the library makes: a passing check with
// a literal message makes none.
TEST(AllocCounts, PassingChecksAllocateNothing) {
  EXPECT_EQ(allocations_of([] {
              for (int i = 0; i < 1000; ++i) {
                require(i >= 0, "a literal message longer than the small-string buffer");
                require_format(i >= 0, "another literal message longer than that buffer");
              }
            }),
            0u);
  EXPECT_GT(allocations_of([] { (void)quant_codes(16); }), 0u);
}

}  // namespace
}  // namespace cosmo
