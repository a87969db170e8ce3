#include "zfp/block_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace cosmo::zfp {

namespace {

constexpr UInt kNbMask = 0xaaaaaaaau;

/// Block sizes per rank.
constexpr std::size_t block_size(int rank) {
  return rank == 1 ? 4u : rank == 2 ? 16u : 64u;
}

/// Builds the total-sequency permutation once per rank.
std::vector<std::uint16_t> build_perm(int rank) {
  const std::size_t n = block_size(rank);
  std::vector<std::uint16_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  auto degree = [rank](std::uint16_t idx) {
    const unsigned i = idx & 3u;
    const unsigned j = (idx >> 2) & 3u;
    const unsigned k = (idx >> 4) & 3u;
    return rank == 1 ? i : rank == 2 ? i + j : i + j + k;
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint16_t a, std::uint16_t b) { return degree(a) < degree(b); });
  return perm;
}

/// Forward transform over a 4^rank block in place.
void fwd_xform(Int* p, int rank) {
  if (rank == 1) {
    fwd_lift(p, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + x, 4);
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 16 * z + 4 * y, 1);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 16 * z + x, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 4 * y + x, 16);
}

/// Inverse transform (reverse axis order).
void inv_xform(Int* p, int rank) {
  if (rank == 1) {
    inv_lift(p, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 4 * y, 1);
    return;
  }
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 4 * y + x, 16);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 16 * z + x, 4);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 16 * z + 4 * y, 1);
}

/// Transposes a 32x32 bit matrix in place, element (r, c) being bit c of
/// a[r]. Level j swaps, inside every aligned 2j x 2j tile, the j x j
/// sub-tile right of the diagonal with the one below it; the five levels
/// together exchange row and column indices.
void transpose32(std::array<UInt, 32>& a) {
  UInt m = 0x0000FFFFu;
  for (unsigned j = 16; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 32; k = (k + j + 1) & ~j) {
      const UInt t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// Bit planes of a block of up to 64 values: bit i of planes[k] is bit k
/// of data[i]. Two 32x32 transposes cost less than gathering each plane
/// the encoder reads value by value.
std::array<std::uint64_t, kIntPrec> bit_planes(std::span<const UInt> data) {
  std::array<UInt, 32> lo{}, hi{};
  for (std::size_t i = 0; i < data.size(); ++i) (i < 32 ? lo[i] : hi[i - 32]) = data[i];
  transpose32(lo);
  transpose32(hi);
  std::array<std::uint64_t, kIntPrec> planes{};
  for (std::size_t k = 0; k < kIntPrec; ++k) {
    planes[k] = lo[k] | (static_cast<std::uint64_t>(hi[k]) << 32);
  }
  return planes;
}

/// Maximum base-2 exponent over a block (frexp convention: |x| < 2^emax).
int block_emax(std::span<const float> block) {
  float max_abs = 0.0f;
  for (const float v : block) max_abs = std::max(max_abs, std::fabs(v));
  if (max_abs == 0.0f) return INT_MIN;
  int e;
  std::frexp(max_abs, &e);
  return e;
}

}  // namespace

namespace {

// The lifting butterflies intentionally wrap modulo 2^32 (as in reference
// ZFP, whose near-overflow planes round-trip through exactly this wrap).
// Signed +/- overflow is UB, so wrap in unsigned — same bits, defined
// behavior. Right shifts stay on Int (they must be arithmetic); the
// doubling steps use wadd(v, v), the same modular multiply-by-2.
inline Int wadd(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) + static_cast<UInt>(b));
}
inline Int wsub(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) - static_cast<UInt>(b));
}

}  // namespace

void fwd_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  // Non-orthogonal transform (1/16 * [[4,4,4,4],[5,1,-1,-5],[-4,4,4,-4],[-2,6,-6,2]]).
  x = wadd(x, w); x >>= 1; w = wsub(w, x);
  z = wadd(z, y); z >>= 1; y = wsub(y, z);
  x = wadd(x, z); x >>= 1; z = wsub(z, x);
  w = wadd(w, y); w >>= 1; y = wsub(y, w);
  w = wadd(w, y >> 1); y = wsub(y, w >> 1);
  p[0 * s] = x;
  p[1 * s] = y;
  p[2 * s] = z;
  p[3 * s] = w;
}

void inv_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = wadd(y, w >> 1); w = wsub(w, y >> 1);
  y = wadd(y, w); w = wadd(w, w); w = wsub(w, y);
  z = wadd(z, x); x = wadd(x, x); x = wsub(x, z);
  y = wadd(y, z); z = wadd(z, z); z = wsub(z, y);
  w = wadd(w, x); x = wadd(x, x); x = wsub(x, w);
  p[0 * s] = x;
  p[1 * s] = y;
  p[2 * s] = z;
  p[3 * s] = w;
}

UInt int2uint(Int x) { return (static_cast<UInt>(x) + kNbMask) ^ kNbMask; }

Int uint2int(UInt x) { return static_cast<Int>((x ^ kNbMask) - kNbMask); }

std::span<const std::uint16_t> sequency_permutation(int rank) {
  require(rank >= 1 && rank <= 3, "zfp: rank must be 1..3");
  static const std::vector<std::uint16_t> p1 = build_perm(1);
  static const std::vector<std::uint16_t> p2 = build_perm(2);
  static const std::vector<std::uint16_t> p3 = build_perm(3);
  switch (rank) {
    case 1: return p1;
    case 2: return p2;
    default: return p3;
  }
}

unsigned encode_ints(BitWriter& bw, unsigned maxbits, unsigned maxprec,
                     std::span<const UInt> data) {
  const std::size_t size = data.size();
  require(size <= 64, "zfp: block larger than 64 values");
  const unsigned kmin = kIntPrec > maxprec ? kIntPrec - maxprec : 0;
  unsigned bits = maxbits;
  std::size_t n = 0;
  const std::array<std::uint64_t, kIntPrec> planes = bit_planes(data);
  for (unsigned k = kIntPrec; bits && k-- > kmin;) {
    // Step 1: bit plane k.
    std::uint64_t x = planes[k];
    // Step 2: first n bits verbatim (these values are already significant).
    const unsigned m = std::min<unsigned>(static_cast<unsigned>(n), bits);
    bits -= m;
    bw.put(x, m);
    // m == 64 only when the whole block is already significant; x is dead
    // then, but shift-by-64 is UB, so clear it explicitly.
    x = m < 64 ? x >> m : 0;
    // Step 3: unary run-length code for newly significant values, one put
    // per group instead of one per bit. A group is the group-test bit (1),
    // the zero run of still-insignificant values up to the next significant
    // one, and that value's 1 — or, when the run reaches the block's last
    // value, the zeros alone (the last value is then implied). A group cut
    // by the bit budget keeps its low (first-written) bits, so the stream
    // is the per-bit loop's bit for bit, as decode_ints reads it.
    while (n < size && bits) {
      if (x == 0) {  // group test 0: no more significant values in this plane
        --bits;
        bw.put_bit(false);
        break;
      }
      const std::size_t avail = size - 1 - n;  // values the zero run may cover
      const auto z = static_cast<unsigned>(std::countr_zero(x));  // z <= avail
      std::uint64_t group = 1;
      unsigned len = static_cast<unsigned>(avail) + 1;
      if (z < avail) {
        group |= std::uint64_t{2} << z;
        len = z + 2;
      }
      const unsigned step = z < avail ? z + 1 : len;
      if (len >= bits) {
        bw.put(group, bits);
        bits = 0;
        break;
      }
      bw.put(group, len);
      bits -= len;
      n += step;
      x = step < 64 ? x >> step : 0;
    }
  }
  return maxbits - bits;
}

unsigned decode_ints(BitReader& br, unsigned maxbits, unsigned maxprec,
                     std::span<UInt> data) {
  const std::size_t size = data.size();
  require(size <= 64, "zfp: block larger than 64 values");
  std::fill(data.begin(), data.end(), 0u);
  const unsigned kmin = kIntPrec > maxprec ? kIntPrec - maxprec : 0;
  unsigned bits = maxbits;
  std::size_t n = 0;
  for (unsigned k = kIntPrec; bits && k-- > kmin;) {
    const unsigned m = std::min<unsigned>(static_cast<unsigned>(n), bits);
    bits -= m;
    std::uint64_t x = br.get(m);
    // Group-testing scan. Consumes exactly the bits the per-bit reference
    // loop would: one group-test bit per outer round, then the zero run of
    // not-yet-significant values — scanned a peeked window at a time with
    // countr_zero instead of bit by bit.
    while (n < size && bits) {
      --bits;
      if (!br.get_bit()) break;  // group test: no more significant values
      while (n < size - 1 && bits) {
        const unsigned chunk = std::min({bits, static_cast<unsigned>(size - 1 - n),
                                         BitReader::kMaxPeekBits});
        const std::uint64_t window = br.peek(chunk);
        if (window == 0) {  // the whole window is insignificant values
          br.skip(chunk);
          bits -= chunk;
          n += chunk;
          continue;
        }
        const unsigned z = static_cast<unsigned>(std::countr_zero(window));
        br.skip(z + 1);  // z zeros + the significance bit that ends the run
        bits -= z + 1;
        n += z;
        break;
      }
      x += std::uint64_t{1} << n;
      ++n;
    }
    for (std::size_t i = 0; x; ++i, x >>= 1) {
      data[i] += static_cast<UInt>(x & 1u) << k;
    }
  }
  return maxbits - bits;
}

unsigned precision_for(int emax, unsigned maxprec, int minexp, int rank) {
  if (emax == INT_MIN) return 0;
  const long p = static_cast<long>(emax) - minexp + 2l * (rank + 1);
  if (p <= 0) return 0;
  return std::min<unsigned>(maxprec, static_cast<unsigned>(p));
}

unsigned encode_block_float(BitWriter& bw, std::span<const float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool pad_to_maxbits) {
  const std::size_t size = block_size(rank);
  require(block.size() == size, "zfp: bad block size");
  const std::uint64_t start_bits = bw.bit_count();

  const int emax = block_emax(block);
  const unsigned prec = precision_for(emax, maxprec, minexp, rank);
  if (prec == 0 || emax == INT_MIN) {
    bw.put_bit(false);  // empty block
  } else {
    bw.put_bit(true);
    // Biased exponent: frexp exponents of finite floats fit in [-148, 128].
    bw.put(static_cast<std::uint64_t>(emax + 256), 10);
    // Align to common exponent and convert to fixed point (2 headroom bits
    // absorb transform gain).
    // Scaling by 2^(30 - emax) is exact in double for every finite float:
    // the scale lies in [2^-98, 2^178] and nonzero products in
    // [2^-247, 2^30), all normal doubles. So one multiply per value gives
    // the same bits as a libm ldexp call per value.
    const double scale = std::ldexp(1.0, static_cast<int>(kIntPrec) - 2 - emax);
    std::array<Int, 64> ints{};
    for (std::size_t i = 0; i < size; ++i) {
      ints[i] = static_cast<Int>(static_cast<double>(block[i]) * scale);
    }
    fwd_xform(ints.data(), rank);
    const auto perm = sequency_permutation(rank);
    std::array<UInt, 64> coded{};
    for (std::size_t i = 0; i < size; ++i) coded[i] = int2uint(ints[perm[i]]);
    const unsigned header = static_cast<unsigned>(bw.bit_count() - start_bits);
    require(maxbits > header, "zfp: bit budget smaller than block header");
    encode_ints(bw, maxbits - header, prec, std::span<const UInt>(coded.data(), size));
  }

  unsigned used = static_cast<unsigned>(bw.bit_count() - start_bits);
  if (pad_to_maxbits) {
    while (used < maxbits) {
      const unsigned chunk = std::min(maxbits - used, 64u);
      bw.put(0, chunk);
      used += chunk;
    }
  }
  return used;
}

unsigned decode_block_float(BitReader& br, std::span<float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool skip_to_maxbits) {
  const std::size_t size = block_size(rank);
  require(block.size() == size, "zfp: bad block size");
  const std::uint64_t start = br.position();

  if (!br.get_bit()) {
    std::fill(block.begin(), block.end(), 0.0f);
  } else {
    const int emax = static_cast<int>(br.get(10)) - 256;
    const unsigned prec = precision_for(emax, maxprec, minexp, rank);
    std::array<UInt, 64> coded{};
    const unsigned header = static_cast<unsigned>(br.position() - start);
    decode_ints(br, maxbits - header, prec, std::span<UInt>(coded.data(), size));
    const auto perm = sequency_permutation(rank);
    std::array<Int, 64> ints{};
    for (std::size_t i = 0; i < size; ++i) ints[perm[i]] = uint2int(coded[i]);
    inv_xform(ints.data(), rank);
    // Exact power-of-two scaling, as in encode_block_float.
    const double scale = std::ldexp(1.0, emax + 2 - static_cast<int>(kIntPrec));
    for (std::size_t i = 0; i < size; ++i) {
      block[i] = static_cast<float>(static_cast<double>(ints[i]) * scale);
    }
  }

  unsigned used = static_cast<unsigned>(br.position() - start);
  if (skip_to_maxbits && used < maxbits) {
    br.seek(start + maxbits);
    used = maxbits;
  }
  return used;
}

}  // namespace cosmo::zfp
