#include "sz/sz.hpp"

#include <cmath>
#include <cstring>
#include <optional>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/telemetry.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::sz {

namespace {

constexpr std::uint32_t kMagic = 0x535A4331;  // "SZC1"

/// Little-endian byte buffer serializer.
struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
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

/// Little-endian byte buffer deserializer with bounds checks.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // Overflow-safe: pos <= size() is an invariant, so compare against the
  // remaining byte count instead of forming pos + n (which wraps when a
  // corrupted header yields n near SIZE_MAX).
  void need(std::size_t n) const {
    require_format(n <= bytes.size() - pos, "sz: truncated stream");
  }
  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  std::uint8_t u8() {
    need(1);
    return bytes[pos++];
  }
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
  std::vector<std::uint8_t> raw(std::size_t n) {
    need(n);
    std::vector<std::uint8_t> out(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  }
};

/// Enumerates blocks in deterministic (z, y, x) order.
template <typename Fn>
void for_each_block(const Dims& dims, std::size_t edge, Fn&& fn) {
  for (std::size_t z0 = 0; z0 < dims.nz; z0 += edge) {
    for (std::size_t y0 = 0; y0 < dims.ny; y0 += edge) {
      for (std::size_t x0 = 0; x0 < dims.nx; x0 += edge) {
        BlockRange blk;
        blk.x0 = x0;
        blk.x1 = std::min(x0 + edge, dims.nx);
        blk.y0 = y0;
        blk.y1 = std::min(y0 + edge, dims.ny);
        blk.z0 = z0;
        blk.z1 = std::min(z0 + edge, dims.nz);
        fn(blk);
      }
    }
  }
}

/// Materialized block list (same order as for_each_block) with the prefix
/// offsets of each block's quantization codes — the geometry both the
/// block-parallel compress and decompress passes partition on.
struct BlockLayout {
  std::vector<BlockRange> blocks;
  std::vector<std::size_t> code_off;  // size blocks.size() + 1

  BlockLayout(const Dims& dims, std::size_t edge) {
    for_each_block(dims, edge, [this](const BlockRange& blk) { blocks.push_back(blk); });
    code_off.resize(blocks.size() + 1, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      code_off[b + 1] = code_off[b] + blocks[b].count();
    }
  }
};

}  // namespace

std::size_t default_block_edge(int rank) {
  switch (rank) {
    case 1: return 128;
    case 2: return 16;
    default: return 8;
  }
}

std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats, ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_into(data, dims, params, out, stats, pool);
  return out;
}

void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats, ThreadPool* pool) {
  require(data.size() == dims.count(), "sz::compress: data/dims size mismatch");
  require(!data.empty(), "sz::compress: empty input");
  const std::size_t edge =
      params.block_edge ? params.block_edge : default_block_edge(dims.rank());
  require(edge >= 2, "sz::compress: block edge must be >= 2");
  require(std::isfinite(params.abs_error_bound) && params.abs_error_bound > 0.0,
          "sz::compress: abs error bound must be finite and positive");

  const Quantizer quant(params.abs_error_bound, params.radius);
  const BlockLayout layout(dims, edge);
  const std::size_t n_blocks = layout.blocks.size();

  // Block-parallel prediction + quantization. Every output is slot-indexed
  // by block (codes at the block's prefix offset, flags/coefs/unpredictable
  // values in per-block slots concatenated in block order below), and
  // lorenzo_predict never reads outside the block, so the result is
  // independent of how blocks are partitioned across threads.
  std::vector<float> recon(data.size(), 0.0f);
  std::vector<std::uint32_t> codes(data.size());
  std::vector<std::uint8_t> block_flags(n_blocks, 0);
  std::vector<RegressionCoef> block_coefs(n_blocks);
  std::vector<std::vector<float>> block_unpred(n_blocks);

  {
    TRACE_SPAN("sz.lorenzo_quantize");
    // One block's quantization cursor: its codes go to consecutive slots
    // from the block's prefix offset, its unpredictable values to its own
    // list, in visit order.
    struct BlockQuant {
      std::size_t b;
      const BlockRange* blk;
      bool use_reg;
      RegressionCoef coef;
      std::size_t ci;
    };
    const auto quant_at = [&](BlockQuant& q, float pred, std::size_t idx) {
      const Quantizer::Result r = quant.quantize(data[idx], pred);
      codes[q.ci++] = r.code;
      if (r.code == 0) {
        block_unpred[q.b].push_back(data[idx]);
        recon[idx] = data[idx];
      } else {
        recon[idx] = r.reconstructed;
      }
    };
    const auto prepare = [&](std::size_t b) {
      const BlockRange& blk = layout.blocks[b];
      bool use_reg = false;
      RegressionCoef coef;
      if (params.regression && blk.count() >= 8) {
        coef = fit_regression(data, dims, blk);
        const double reg_err = regression_error_estimate(data, dims, blk, coef);
        const double lor_err = lorenzo_error_estimate(data, dims, blk);
        use_reg = reg_err < lor_err;
      }
      block_flags[b] = use_reg ? 1 : 0;
      if (use_reg) block_coefs[b] = coef;
      return BlockQuant{b, &blk, use_reg, coef, layout.code_off[b]};
    };
    // The use_reg / Lorenzo / boundary decisions are hoisted out of the
    // per-point loop: regression rows are branch-free (the prediction
    // reads no reconstructed neighbors), and Lorenzo interior rows run
    // the direct seven-load stencil — only boundary rows and the x0
    // column pay the general masked lorenzo_predict. Expressions and
    // visit order are unchanged, so codes and streams are byte-identical.
    const int rank = dims.rank();
    const std::size_t nx = dims.nx;
    const std::size_t nxy = dims.nx * dims.ny;
    // Quantizes row (dy, dz) of one block (offsets from the block origin).
    const auto quantize_row = [&](BlockQuant& q, std::size_t dy, std::size_t dz) {
      const BlockRange& blk = *q.blk;
      const std::size_t y = blk.y0 + dy, z = blk.z0 + dz;
      const std::size_t row = dims.index(blk.x0, y, z);
      const std::size_t row_n = blk.x1 - blk.x0;
      if (q.use_reg) {
        for (std::size_t k = 0; k < row_n; ++k) quant_at(q, q.coef.predict(k, dy, dz), row + k);
      } else if ((rank == 3 && dy > 0 && dz > 0) || (rank == 2 && dy > 0)) {
        quant_at(q, lorenzo_predict(recon, dims, blk, blk.x0, y, z), row);
        if (rank == 3) {
          for (std::size_t k = 1; k < row_n; ++k) {
            quant_at(q, lorenzo_predict3_interior(recon.data(), row + k, nx, nxy), row + k);
          }
        } else {
          for (std::size_t k = 1; k < row_n; ++k) {
            quant_at(q, lorenzo_predict2_interior(recon.data(), row + k, nx), row + k);
          }
        }
      } else {
        for (std::size_t k = 0; k < row_n; ++k) {
          quant_at(q, lorenzo_predict(recon, dims, blk, blk.x0 + k, y, z), row + k);
        }
      }
    };
    const auto quantize_block = [&](BlockQuant& q) {
      const BlockRange& blk = *q.blk;
      for (std::size_t dz = 0; dz < blk.z1 - blk.z0; ++dz) {
        for (std::size_t dy = 0; dy < blk.y1 - blk.y0; ++dy) quantize_row(q, dy, dz);
      }
    };
    // Two rank-3 Lorenzo blocks of one shape, row by row in lockstep. Each
    // point's reconstruction feeds the next point's prediction, so one
    // block is a chain of dependent divides and rounds; blocks never read
    // each other, and interleaving two of them lets the core overlap the
    // two chains. Every block still visits its own points in its own order,
    // so codes, unpredictable lists and reconstructions are unchanged.
    const auto quantize_pair = [&](BlockQuant& a, BlockQuant& c) {
      const BlockRange& ba = *a.blk;
      const BlockRange& bc = *c.blk;
      const std::size_t row_n = ba.x1 - ba.x0;
      for (std::size_t dz = 0; dz < ba.z1 - ba.z0; ++dz) {
        for (std::size_t dy = 0; dy < ba.y1 - ba.y0; ++dy) {
          if (dy == 0 || dz == 0) {
            quantize_row(a, dy, dz);
            quantize_row(c, dy, dz);
            continue;
          }
          const std::size_t ra = dims.index(ba.x0, ba.y0 + dy, ba.z0 + dz);
          const std::size_t rc = dims.index(bc.x0, bc.y0 + dy, bc.z0 + dz);
          quant_at(a, lorenzo_predict(recon, dims, ba, ba.x0, ba.y0 + dy, ba.z0 + dz), ra);
          quant_at(c, lorenzo_predict(recon, dims, bc, bc.x0, bc.y0 + dy, bc.z0 + dz), rc);
          for (std::size_t k = 1; k < row_n; ++k) {
            quant_at(a, lorenzo_predict3_interior(recon.data(), ra + k, nx, nxy), ra + k);
            quant_at(c, lorenzo_predict3_interior(recon.data(), rc + k, nx, nxy), rc + k);
          }
        }
      }
    };
    const auto same_shape = [](const BlockRange& p, const BlockRange& q) {
      return p.x1 - p.x0 == q.x1 - q.x0 && p.y1 - p.y0 == q.y1 - q.y0 &&
             p.z1 - p.z0 == q.z1 - q.z0;
    };
    parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
      std::optional<BlockQuant> held;  // a Lorenzo block waiting for a partner
      for (std::size_t b = lo; b < hi; ++b) {
        BlockQuant q = prepare(b);
        if (rank != 3 || q.use_reg) {
          quantize_block(q);
        } else if (held && same_shape(*held->blk, *q.blk)) {
          quantize_pair(*held, q);
          held.reset();
        } else {
          if (held) quantize_block(*held);
          held = q;
        }
      }
      if (held) quantize_block(*held);
    }, /*min_grain=*/1);
  }

  std::size_t n_regression = 0;
  std::vector<RegressionCoef> coefs;
  std::vector<float> unpred;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (block_flags[b]) {
      ++n_regression;
      coefs.push_back(block_coefs[b]);
    }
    unpred.insert(unpred.end(), block_unpred[b].begin(), block_unpred[b].end());
  }

  // Chunked container in both the serial and threaded paths: the chunk
  // geometry is a fixed constant, so the bytes match for any thread count.
  std::vector<std::uint8_t> huff;
  {
    TRACE_SPAN("sz.huffman_encode");
    huff = huffman_encode_chunked(codes, pool);
  }

  ByteWriter w;
  w.u32(kMagic);
  w.u64(dims.nx);
  w.u64(dims.ny);
  w.u64(dims.nz);
  w.f64(params.abs_error_bound);
  w.u32(params.radius);
  w.u64(edge);
  w.u64(n_blocks);
  w.u64(coefs.size());
  w.u64(huff.size());
  w.u64(unpred.size());
  w.raw(block_flags.data(), block_flags.size());
  for (const auto& c : coefs) {
    w.f32(c.a);
    w.f32(c.b);
    w.f32(c.c);
    w.f32(c.d);
  }
  w.raw(huff.data(), huff.size());
  for (const float v : unpred) w.f32(v);

  out.clear();
  if (params.lossless) {
    TRACE_SPAN("sz.lzss_encode");
    std::vector<std::uint8_t> packed = lzss_encode_chunked(w.bytes, pool);
    if (packed.size() < w.bytes.size()) {
      out.push_back(1);
      out.insert(out.end(), packed.begin(), packed.end());
    } else {
      out.push_back(0);
      out.insert(out.end(), w.bytes.begin(), w.bytes.end());
    }
  } else {
    out.push_back(0);
    out.insert(out.end(), w.bytes.begin(), w.bytes.end());
  }

  if (stats) {
    stats->total_points = data.size();
    stats->unpredictable_points = unpred.size();
    stats->total_blocks = n_blocks;
    stats->regression_blocks = n_regression;
    stats->compressed_bytes = out.size();
    stats->bit_rate = static_cast<double>(out.size()) * 8.0 / static_cast<double>(data.size());
  }
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims,
                              ThreadPool* pool) {
  std::vector<float> out;
  decompress_into(bytes, out, out_dims, pool);
  return out;
}

void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& recon,
                     Dims* out_dims, ThreadPool* pool) {
  require_format(!bytes.empty(), "sz: empty stream");
  const bool packed = bytes[0] == 1;
  std::vector<std::uint8_t> payload_storage;
  std::span<const std::uint8_t> payload;
  if (packed) {
    TRACE_SPAN("sz.lzss_decode");
    const std::vector<std::uint8_t> lossless(bytes.begin() + 1, bytes.end());
    payload_storage =
        is_chunked_lzss(lossless) ? lzss_decode_chunked(lossless, pool) : lzss_decode(lossless);
    payload = payload_storage;
  } else {
    payload = bytes.subspan(1);
  }

  ByteReader r{payload};
  require_format(r.u32() == kMagic, "sz: bad magic");
  Dims dims;
  dims.nx = r.u64();
  dims.ny = r.u64();
  dims.nz = r.u64();
  const double eb = r.f64();
  const std::uint32_t radius = r.u32();
  const std::size_t edge = r.u64();
  const std::size_t n_blocks = r.u64();
  const std::size_t n_coefs = r.u64();
  const std::size_t huff_len = r.u64();
  const std::size_t n_unpred = r.u64();

  // Bound every count against the payload actually present before any
  // allocation sizes on it: a corrupted header must fail with FormatError,
  // not a multi-GB allocation or an infinite block walk (edge == 0 would
  // never advance for_each_block).
  const std::size_t count = checked_stream_count(dims, "sz");
  require_format(edge >= 2, "sz: block edge out of range");
  require_format(n_blocks <= r.remaining(), "sz: block count exceeds payload");
  require_format(n_coefs <= (r.remaining() - n_blocks) / 16,
                 "sz: regression coef count exceeds payload");
  require_format(huff_len <= r.remaining(), "sz: huffman section exceeds payload");
  require_format(n_unpred <= r.remaining() / 4, "sz: unpredictable count exceeds payload");

  const std::vector<std::uint8_t> block_flags = r.raw(n_blocks);
  std::vector<RegressionCoef> coefs(n_coefs);
  for (auto& c : coefs) {
    c.a = r.f32();
    c.b = r.f32();
    c.c = r.f32();
    c.d = r.f32();
  }
  const std::vector<std::uint8_t> huff = r.raw(huff_len);
  std::vector<float> unpred(n_unpred);
  for (auto& v : unpred) v = r.f32();

  std::vector<std::uint32_t> codes;
  {
    TRACE_SPAN("sz.huffman_decode");
    codes = huffman_decode(huff, pool);
  }
  require_format(codes.size() == count, "sz: code count mismatch");

  const BlockLayout layout(dims, edge);
  require_format(layout.blocks.size() == n_blocks, "sz: block count mismatch");
  require_format(block_flags.size() == n_blocks, "sz: block metadata underrun");

  // Recover each block's unpredictable-value and regression-coef offsets by
  // prefix sums (a block's unpredictable count is the number of zero codes
  // in its code slice), then reconstruct block-parallel.
  std::vector<std::size_t> unpred_off(n_blocks + 1, 0);
  std::vector<std::size_t> coef_off(n_blocks + 1, 0);
  parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::size_t zeros = 0;
      for (std::size_t i = layout.code_off[b]; i < layout.code_off[b + 1]; ++i) {
        if (codes[i] == 0) ++zeros;
      }
      unpred_off[b + 1] = zeros;  // raw counts; prefix-summed below
    }
  }, /*min_grain=*/1);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    unpred_off[b + 1] += unpred_off[b];
    coef_off[b + 1] = coef_off[b] + (block_flags[b] ? 1 : 0);
  }
  require_format(unpred_off[n_blocks] == unpred.size(), "sz: unpredictable count mismatch");
  require_format(coef_off[n_blocks] == coefs.size(), "sz: regression coef count mismatch");

  const Quantizer quant(eb, radius);
  recon.assign(count, 0.0f);
  TRACE_SPAN("sz.reconstruct");
  parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const BlockRange& blk = layout.blocks[b];
      const bool use_reg = block_flags[b] != 0;
      const RegressionCoef coef = use_reg ? coefs[coef_off[b]] : RegressionCoef{};
      std::size_t code_idx = layout.code_off[b];
      std::size_t unpred_idx = unpred_off[b];
      for (std::size_t z = blk.z0; z < blk.z1; ++z) {
        for (std::size_t y = blk.y0; y < blk.y1; ++y) {
          for (std::size_t x = blk.x0; x < blk.x1; ++x) {
            const std::size_t idx = dims.index(x, y, z);
            const std::uint32_t code = codes[code_idx++];
            if (code == 0) {
              recon[idx] = unpred[unpred_idx++];
            } else {
              const float pred = use_reg
                                     ? coef.predict(x - blk.x0, y - blk.y0, z - blk.z0)
                                     : lorenzo_predict(recon, dims, blk, x, y, z);
              recon[idx] = quant.reconstruct(code, pred);
            }
          }
        }
      }
    }
  }, /*min_grain=*/1);

  if (out_dims) *out_dims = dims;
}

}  // namespace cosmo::sz
