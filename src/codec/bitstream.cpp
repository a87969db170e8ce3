#include "codec/bitstream.hpp"

#include <algorithm>

namespace cosmo {

void BitWriter::append(const BitWriter& other, std::uint64_t from_bit) {
  if (from_bit % 64 == 0) {
    for (std::size_t k = static_cast<std::size_t>(from_bit / 64); k < other.words_.size(); ++k) {
      put(other.words_[k], 64);
    }
    if (other.cur_bits_ > 0 && from_bit <= other.words_.size() * 64) {
      put(other.cur_, other.cur_bits_);
    }
    return;
  }
  // Unaligned start: each put takes the next 64 bits straddling two words.
  // Bits of the current word above cur_bits_ are zero, so the last, short
  // put needs no mask beyond put's own.
  const unsigned shift = static_cast<unsigned>(from_bit % 64);
  for (std::uint64_t pos = from_bit; pos < other.bit_count_; pos += 64) {
    const std::size_t k = static_cast<std::size_t>(pos / 64);
    std::uint64_t v = other.word(k) >> shift;
    if (k < other.words_.size()) v |= other.word(k + 1) << (64 - shift);
    put(v, static_cast<unsigned>(std::min<std::uint64_t>(64, other.bit_count_ - pos)));
  }
}

std::vector<std::uint8_t> BitWriter::finish() const {
  // Whole words serialize LSB-first, i.e. little-endian byte order; writing
  // into a pre-sized buffer (instead of push_back per byte) keeps the loop
  // store-bound. Bytes are identical to the byte-at-a-time version.
  std::vector<std::uint8_t> out((bit_count_ + 7) / 8);
  std::uint8_t* dst = out.data();
  for (const std::uint64_t w : words_) {
    for (unsigned i = 0; i < 8; ++i) dst[i] = static_cast<std::uint8_t>(w >> (8 * i));
    dst += 8;
  }
  if (cur_bits_ > 0) {
    const unsigned tail = (cur_bits_ + 7) / 8;
    for (unsigned i = 0; i < tail; ++i) dst[i] = static_cast<std::uint8_t>(cur_ >> (8 * i));
  }
  return out;
}

void BitWriter::clear() {
  words_.clear();
  cur_ = 0;
  cur_bits_ = 0;
  bit_count_ = 0;
}

std::uint64_t BitReader::get_slow(unsigned nbits) {
  if (nbits == 0) return 0;
  require(nbits <= 64, "BitReader::get: nbits > 64");
  // 57..64 bits: check the full width up front (so a failed read does not
  // move the cursor), then split into two in-bounds fast reads.
  require_format(nbits <= remaining(), "BitReader: read past end of stream");
  const std::uint64_t lo = get(32);
  const std::uint64_t hi = get(nbits - 32);
  return lo | (hi << 32);
}

void BitReader::seek(std::uint64_t bit_pos) {
  require_format(bit_pos <= size_bits_, "BitReader::seek: position past end");
  const std::uint64_t byte = bit_pos >> 3;
  const unsigned frac = static_cast<unsigned>(bit_pos & 7);
  buf_ = 0;
  buf_bits_ = 0;
  next_byte_ = byte;
  if (frac != 0) {
    // Load the straddled byte and drop its already-consumed low bits.
    buf_ = static_cast<std::uint64_t>(data_[byte]) >> frac;
    buf_bits_ = 8 - frac;
    next_byte_ = byte + 1;
  }
}

}  // namespace cosmo
