#include "fz/fz.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::fz {

namespace {

constexpr std::uint32_t kMagic = 0x31435A46;  // "FZC1"
constexpr std::size_t kMaxChunkValues = 1u << 20;
constexpr std::size_t kGroupBytes = 16;  // zero-run sparsifier group size

/// Little-endian byte buffer serializer (same layout rules as sz::).
struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void raw(const std::uint8_t* p, std::size_t n) { bytes.insert(bytes.end(), p, p + n); }
};

/// Little-endian deserializer with overflow-safe bounds checks.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // pos <= size() is an invariant, so compare against the remaining byte
  // count instead of forming pos + n (which wraps for corrupted lengths).
  void need(std::size_t n) const {
    require_format(n <= bytes.size() - pos, "fz: truncated stream");
  }
  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    need(n);
    auto s = bytes.subspan(pos, n);
    pos += n;
    return s;
  }
};

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Symbol remap: code 0 (unpredictable) stays 0; a predictable code is
/// re-centered around the radius and zigzag-encoded so that well-predicted
/// values become *small* symbols. Raw codes cluster at the radius (0x8000),
/// which would make the high bit-planes all-ones and defeat the zero-run
/// sparsifier; after the remap those planes are almost entirely zero.
std::uint16_t remap_code(std::uint32_t code, std::uint32_t radius) {
  const std::int32_t centered = static_cast<std::int32_t>(code) - static_cast<std::int32_t>(radius);
  const std::uint32_t zigzag =
      (static_cast<std::uint32_t>(centered) << 1) ^ static_cast<std::uint32_t>(centered >> 31);
  return static_cast<std::uint16_t>(zigzag + 1);
}

/// Inverse of remap_code for a nonzero symbol; throws FormatError when the
/// symbol decodes outside the quantizer's code space.
std::uint32_t unmap_symbol(std::uint16_t symbol, std::uint32_t radius) {
  const std::uint32_t zigzag = static_cast<std::uint32_t>(symbol) - 1;
  const std::int32_t centered =
      static_cast<std::int32_t>(zigzag >> 1) ^ -static_cast<std::int32_t>(zigzag & 1);
  const std::int64_t code = static_cast<std::int64_t>(centered) + radius;
  require_format(code >= 1 && code <= 2 * static_cast<std::int64_t>(radius) - 1,
                 "fz: symbol outside code space");
  return static_cast<std::uint32_t>(code);
}

/// Appends the zero-run stream for \p planes to \p w.
void zero_run_encode_into(std::span<const std::uint8_t> planes, ByteWriter& w) {
  w.u64(planes.size());
  const std::size_t groups = ceil_div(planes.size(), kGroupBytes);
  const std::size_t bitmap_bytes = ceil_div(groups, 8);
  const std::size_t bitmap_at = w.bytes.size();
  // Worst case (every group nonzero) reserved once: the group appends below
  // never reallocate.
  w.bytes.reserve(bitmap_at + bitmap_bytes + planes.size());
  w.bytes.resize(bitmap_at + bitmap_bytes, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * kGroupBytes;
    const std::size_t hi = std::min(lo + kGroupBytes, planes.size());
    bool nonzero = false;
    for (std::size_t i = lo; i < hi && !nonzero; ++i) nonzero = planes[i] != 0;
    if (nonzero) {
      w.bytes[bitmap_at + g / 8] |= static_cast<std::uint8_t>(1u << (g % 8));
      w.raw(planes.data() + lo, hi - lo);
    }
  }
}

/// Decodes a zero-run stream from \p r into \p out. When \p expected_len is
/// non-null the declared length must match it exactly (the chunk decoder
/// knows the plane size up front); otherwise the length is bounded by what
/// the bitmap alone implies about the input size, so a corrupted header
/// cannot drive an unbounded allocation.
void zero_run_decode_into(ByteReader& r, std::vector<std::uint8_t>& out,
                          const std::size_t* expected_len) {
  const std::uint64_t declared = r.u64();
  if (expected_len != nullptr) {
    require_format(declared == *expected_len, "fz: zero-run length mismatch");
  }
  const std::size_t len = static_cast<std::size_t>(declared);
  require_format(declared == len, "fz: zero-run length overflow");
  const std::size_t groups = ceil_div(len, kGroupBytes);
  const std::size_t bitmap_bytes = ceil_div(groups, 8);
  // A valid stream carries at least the bitmap, which caps len at roughly
  // 128x the remaining input — the overalloc guard for corrupted lengths.
  require_format(bitmap_bytes <= r.remaining(), "fz: zero-run bitmap truncated");
  const auto bitmap = r.view(bitmap_bytes);
  out.assign(len, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    if ((bitmap[g / 8] >> (g % 8) & 1u) == 0) continue;
    const std::size_t lo = g * kGroupBytes;
    const std::size_t n = std::min(kGroupBytes, len - lo);
    const auto payload = r.view(n);
    std::copy(payload.begin(), payload.end(), out.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

/// Encodes one chunk: quantize + remap, bitshuffle, zero-run sparsify.
void encode_chunk(std::span<const float> values, const Params& params,
                  std::vector<std::uint8_t>& payload, std::size_t& n_unpred) {
  const sz::Quantizer quantizer(params.abs_error_bound, params.radius);
  std::vector<std::uint16_t> symbols(values.size());
  std::vector<float> unpredictable;
  float prev = 0.0f;  // fixed seed => chunks are independent
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto q = quantizer.quantize(values[i], prev);
    if (q.code == 0) {
      symbols[i] = 0;
      unpredictable.push_back(values[i]);
      prev = values[i];
    } else {
      symbols[i] = remap_code(q.code, params.radius);
      prev = q.reconstructed;
    }
  }
  const auto planes = bitshuffle(symbols);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(unpredictable.size()));
  for (const float v : unpredictable) w.f32(v);
  zero_run_encode_into(planes, w);
  payload = std::move(w.bytes);
  n_unpred = unpredictable.size();
}

/// Decodes one chunk payload into \p out (exactly \p count values).
void decode_chunk(std::span<const std::uint8_t> payload, double bound, std::uint32_t radius,
                  std::span<float> out) {
  ByteReader r{payload};
  const std::uint32_t n_unpred = r.u32();
  require_format(n_unpred <= out.size(), "fz: unpredictable count exceeds chunk");
  require_format(n_unpred <= r.remaining() / 4, "fz: unpredictable table truncated");
  std::vector<float> unpredictable(n_unpred);
  for (auto& v : unpredictable) v = r.f32();

  const std::size_t expected_planes = 16 * ceil_div(out.size(), 8);
  std::vector<std::uint8_t> planes;
  zero_run_decode_into(r, planes, &expected_planes);
  require_format(r.remaining() == 0, "fz: trailing bytes in chunk");
  const auto symbols = bitunshuffle(planes, out.size());

  const sz::Quantizer quantizer(bound, radius);
  float prev = 0.0f;
  std::size_t next_unpred = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (symbols[i] == 0) {
      require_format(next_unpred < n_unpred, "fz: unpredictable table underrun");
      prev = unpredictable[next_unpred++];
    } else {
      prev = quantizer.reconstruct(unmap_symbol(symbols[i], radius), prev);
    }
    out[i] = prev;
  }
  require_format(next_unpred == n_unpred, "fz: unpredictable table overrun");
}

}  // namespace

std::vector<std::uint8_t> bitshuffle(std::span<const std::uint16_t> codes) {
  const std::size_t plane_bytes = ceil_div(codes.size(), 8);
  std::vector<std::uint8_t> out(16 * plane_bytes, 0);
  for (std::size_t k = 0; k < codes.size(); ++k) {
    std::uint16_t v = codes[k];
    if (v == 0) continue;  // fast path: well-predicted symbols are tiny
    const std::size_t byte = k >> 3;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (k & 7));
    while (v != 0) {
      const int b = std::countr_zero(v);
      out[static_cast<std::size_t>(b) * plane_bytes + byte] |= bit;
      v &= static_cast<std::uint16_t>(v - 1);
    }
  }
  return out;
}

std::vector<std::uint16_t> bitunshuffle(std::span<const std::uint8_t> planes,
                                        std::size_t count) {
  const std::size_t plane_bytes = ceil_div(count, 8);
  require_format(planes.size() == 16 * plane_bytes, "fz: bitshuffle plane size mismatch");
  std::vector<std::uint16_t> out(count, 0);
  for (std::size_t b = 0; b < 16; ++b) {
    const std::uint8_t* plane = planes.data() + b * plane_bytes;
    for (std::size_t j = 0; j < plane_bytes; ++j) {
      std::uint8_t byte = plane[j];
      while (byte != 0) {
        const std::size_t k = j * 8 + static_cast<std::size_t>(std::countr_zero(byte));
        require_format(k < count, "fz: nonzero padding in bitshuffle tail");
        out[k] |= static_cast<std::uint16_t>(1u << b);
        byte &= static_cast<std::uint8_t>(byte - 1);
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> zero_run_encode(std::span<const std::uint8_t> bytes) {
  ByteWriter w;
  zero_run_encode_into(bytes, w);
  return std::move(w.bytes);
}

std::vector<std::uint8_t> zero_run_decode(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  std::vector<std::uint8_t> out;
  zero_run_decode_into(r, out, nullptr);
  require_format(r.remaining() == 0, "fz: trailing bytes after zero-run stream");
  return out;
}

void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats, ThreadPool* pool) {
  TRACE_SPAN("fz.compress");
  require(data.size() == dims.count(), "fz: data size does not match dims");
  require(!data.empty(), "fz: empty input");
  require(params.abs_error_bound > 0.0 && std::isfinite(params.abs_error_bound),
          "fz: abs_error_bound must be positive and finite");
  require(params.chunk_values >= 1 && params.chunk_values <= kMaxChunkValues,
          "fz: chunk_values out of range");
  require(params.radius >= 2 && params.radius <= (1u << 15), "fz: radius out of range");

  const std::size_t n = data.size();
  const std::size_t n_chunks = ceil_div(n, params.chunk_values);
  std::vector<std::vector<std::uint8_t>> payloads(n_chunks);
  std::vector<std::size_t> unpred_counts(n_chunks, 0);
  parallel_for(pool, n_chunks,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c) {
                   const std::size_t base = c * params.chunk_values;
                   const std::size_t count = std::min(params.chunk_values, n - base);
                   encode_chunk(data.subspan(base, count), params, payloads[c],
                                unpred_counts[c]);
                 }
               },
               /*min_grain=*/1);

  ByteWriter w;
  w.u32(kMagic);
  w.u32(0);  // reserved flags
  w.u64(dims.nx);
  w.u64(dims.ny);
  w.u64(dims.nz);
  w.f64(params.abs_error_bound);
  w.u32(params.radius);
  w.u32(static_cast<std::uint32_t>(params.chunk_values));
  w.u32(static_cast<std::uint32_t>(n_chunks));
  for (const auto& p : payloads) w.u32(static_cast<std::uint32_t>(p.size()));
  for (const auto& p : payloads) w.raw(p.data(), p.size());
  out = std::move(w.bytes);

  if (stats != nullptr) {
    stats->n_values = n;
    stats->n_unpredictable = 0;
    for (const std::size_t c : unpred_counts) stats->n_unpredictable += c;
    stats->compressed_bytes = out.size();
    stats->bit_rate = 8.0 * static_cast<double>(out.size()) / static_cast<double>(n);
  }
}

std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats, ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_into(data, dims, params, out, stats, pool);
  return out;
}

void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims, ThreadPool* pool) {
  TRACE_SPAN("fz.decompress");
  ByteReader r{bytes};
  require_format(r.u32() == kMagic, "fz: bad magic");
  require_format(r.u32() == 0, "fz: unsupported flags");
  Dims dims;
  dims.nx = static_cast<std::size_t>(r.u64());
  dims.ny = static_cast<std::size_t>(r.u64());
  dims.nz = static_cast<std::size_t>(r.u64());
  const std::size_t n = checked_stream_count(dims, "fz");
  const double bound = r.f64();
  require_format(std::isfinite(bound) && bound > 0.0, "fz: bad error bound");
  const std::uint32_t radius = r.u32();
  require_format(radius >= 2 && radius <= (1u << 15), "fz: bad radius");
  const std::uint32_t chunk_values = r.u32();
  require_format(chunk_values >= 1 && chunk_values <= kMaxChunkValues,
                 "fz: bad chunk size");
  const std::uint32_t n_chunks = r.u32();
  require_format(n_chunks == ceil_div(n, chunk_values), "fz: chunk count mismatch");
  // Every value costs at least ~1/64 byte in the shuffled bitmap, so a
  // genuine stream bounds n by its own size — the overalloc guard.
  require_format(n / 64 <= bytes.size(), "fz: declared value count exceeds stream bound");
  require_format(n_chunks <= r.remaining() / 4, "fz: truncated chunk table");

  std::vector<std::size_t> offsets(n_chunks + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c) offsets[c + 1] = offsets[c] + r.u32();
  require_format(offsets[n_chunks] == r.remaining(), "fz: payload size mismatch");
  const auto payloads = r.view(offsets[n_chunks]);

  out.assign(n, 0.0f);
  parallel_for(pool, n_chunks,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t c = lo; c < hi; ++c) {
                   const std::size_t base = c * static_cast<std::size_t>(chunk_values);
                   const std::size_t count =
                       std::min<std::size_t>(chunk_values, n - base);
                   decode_chunk(payloads.subspan(offsets[c], offsets[c + 1] - offsets[c]),
                                bound, radius,
                                std::span<float>(out).subspan(base, count));
                 }
               },
               /*min_grain=*/1);
  if (out_dims != nullptr) *out_dims = dims;
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims,
                              ThreadPool* pool) {
  std::vector<float> out;
  decompress_into(bytes, out, out_dims, pool);
  return out;
}

}  // namespace cosmo::fz
