#include "zfp/chunked.hpp"

#include <algorithm>
#include <cstring>
#include <future>

namespace cosmo::zfp {

namespace {

constexpr std::uint32_t kMagic = 0x5A46504B;  // "ZFPK"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t& pos) {
  require_format(4 <= b.size() - pos, "zfp-chunked: truncated");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[pos++]) << (8 * i);
  return v;
}
std::uint64_t get_u64(std::span<const std::uint8_t> b, std::size_t& pos) {
  require_format(8 <= b.size() - pos, "zfp-chunked: truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[pos++]) << (8 * i);
  return v;
}

/// Slab boundaries along the slowest non-unit axis, 4-aligned.
std::vector<std::pair<std::size_t, std::size_t>> slab_ranges(std::size_t extent,
                                                             std::size_t chunks) {
  chunks = std::max<std::size_t>(1, std::min(chunks, (extent + 3) / 4));
  const std::size_t blocks = (extent + 3) / 4;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t begin_block = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end_block = (c + 1) * blocks / chunks;
    if (end_block == begin_block) continue;
    out.emplace_back(begin_block * 4, std::min(end_block * 4, extent));
    begin_block = end_block;
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> compress_chunked(std::span<const float> data, const Dims& dims,
                                           const Params& params, ThreadPool* pool,
                                           std::size_t chunks, Stats* stats) {
  require(data.size() == dims.count(), "zfp-chunked: size mismatch");
  if (chunks == 0) chunks = pool ? pool->size() : 1;

  // The slab axis is the slowest non-unit dimension.
  const bool along_z = dims.nz > 1;
  const bool along_y = !along_z && dims.ny > 1;
  const std::size_t extent = along_z ? dims.nz : along_y ? dims.ny : dims.nx;
  const auto ranges = slab_ranges(extent, chunks);

  std::vector<std::vector<std::uint8_t>> streams(ranges.size());
  std::vector<std::future<void>> futures;
  auto run_chunk = [&](std::size_t c) {
    const auto [lo, hi] = ranges[c];
    Dims slab_dims = dims;
    std::size_t offset = 0;
    if (along_z) {
      slab_dims.nz = hi - lo;
      offset = dims.index(0, 0, lo);
    } else if (along_y) {
      slab_dims.ny = hi - lo;
      offset = dims.index(0, lo, 0);
    } else {
      slab_dims.nx = hi - lo;
      offset = lo;
    }
    streams[c] = compress(data.subspan(offset, slab_dims.count()), slab_dims, params);
  };
  if (pool) {
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      futures.push_back(pool->submit([&run_chunk, c] { run_chunk(c); }));
    }
    wait_all(futures);
  } else {
    for (std::size_t c = 0; c < ranges.size(); ++c) run_chunk(c);
  }

  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u64(out, dims.nx);
  put_u64(out, dims.ny);
  put_u64(out, dims.nz);
  out.push_back(along_z ? 2 : along_y ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(streams.size()));
  for (std::size_t c = 0; c < streams.size(); ++c) {
    put_u64(out, ranges[c].first);
    put_u64(out, ranges[c].second);
    put_u64(out, streams[c].size());
  }
  for (const auto& s : streams) out.insert(out.end(), s.begin(), s.end());

  if (stats) {
    stats->total_points = data.size();
    stats->total_blocks = streams.size();
    stats->compressed_bytes = out.size();
    stats->bit_rate = static_cast<double>(out.size()) * 8.0 / static_cast<double>(data.size());
  }
  return out;
}

std::vector<float> decompress_chunked(std::span<const std::uint8_t> bytes,
                                      ThreadPool* pool, Dims* out_dims) {
  std::size_t pos = 0;
  require_format(get_u32(bytes, pos) == kMagic, "zfp-chunked: bad magic");
  Dims dims;
  dims.nx = get_u64(bytes, pos);
  dims.ny = get_u64(bytes, pos);
  dims.nz = get_u64(bytes, pos);
  require_format(pos < bytes.size(), "zfp-chunked: truncated");
  const std::uint8_t axis = bytes[pos++];
  require_format(axis <= 2, "zfp-chunked: bad slab axis");
  const std::uint32_t chunk_count = get_u32(bytes, pos);
  // Every chunk costs a 24-byte table entry, so bound the table allocation
  // by the bytes that remain before sizing anything on chunk_count (a
  // corrupted u32 can claim up to 4G entries).
  require_format(chunk_count <= (bytes.size() - pos) / 24,
                 "zfp-chunked: chunk count exceeds payload");
  struct ChunkMeta {
    std::size_t lo, hi, len, offset;
  };
  std::vector<ChunkMeta> metas(chunk_count);
  const std::size_t extent = axis == 2 ? dims.nz : axis == 1 ? dims.ny : dims.nx;
  std::size_t prev_hi = 0;
  for (auto& m : metas) {
    m.lo = get_u64(bytes, pos);
    m.hi = get_u64(bytes, pos);
    m.len = get_u64(bytes, pos);
    // Monotone non-overlapping slabs inside the extent: overlapping ranges
    // would make the parallel scatter below a data race, and hi < lo would
    // wrap the slab extent.
    require_format(m.lo >= prev_hi && m.lo <= m.hi && m.hi <= extent,
                   "zfp-chunked: bad slab range");
    prev_hi = m.hi;
  }
  for (auto& m : metas) {
    m.offset = pos;
    require_format(m.len <= bytes.size() - pos, "zfp-chunked: chunk overruns buffer");
    pos += m.len;
  }

  // Each slab decodes through decompress(), whose own plausibility bound
  // caps values at 512 per payload byte; the same cap therefore holds for
  // the whole field and bounds this allocation by the stream size.
  const std::size_t count = checked_stream_count(dims, "zfp-chunked");
  require_format(count <= 512 * bytes.size(), "zfp-chunked: dims exceed payload");
  std::vector<float> out(count);
  auto run_chunk = [&](std::size_t c) {
    const auto& m = metas[c];
    Dims slab_dims = dims;
    std::size_t dst = 0;
    if (axis == 2) {
      slab_dims.nz = m.hi - m.lo;
      dst = dims.index(0, 0, m.lo);
    } else if (axis == 1) {
      slab_dims.ny = m.hi - m.lo;
      dst = dims.index(0, m.lo, 0);
    } else {
      slab_dims.nx = m.hi - m.lo;
      dst = m.lo;
    }
    Dims got;
    const auto slab = decompress(bytes.subspan(m.offset, m.len), &got);
    require_format(got == slab_dims, "zfp-chunked: chunk shape mismatch");
    std::copy(slab.begin(), slab.end(), out.begin() + static_cast<std::ptrdiff_t>(dst));
  };
  if (pool) {
    std::vector<std::future<void>> futures;
    for (std::size_t c = 0; c < metas.size(); ++c) {
      futures.push_back(pool->submit([&run_chunk, c] { run_chunk(c); }));
    }
    wait_all(futures);
  } else {
    for (std::size_t c = 0; c < metas.size(); ++c) run_chunk(c);
  }
  if (out_dims) *out_dims = dims;
  return out;
}

}  // namespace cosmo::zfp
