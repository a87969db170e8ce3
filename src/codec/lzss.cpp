#include "codec/lzss.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "codec/bitstream.hpp"
#include "common/error.hpp"
#include "common/scratch_arena.hpp"

namespace cosmo {

namespace {

constexpr std::uint32_t kMagic = 0x4C5A5353;         // "LZSS"
constexpr std::uint32_t kChunkedMagic = 0x4C5A5343;  // "LZSC"
constexpr unsigned kWindowBits = 16;                 // 64 KiB window
constexpr unsigned kLengthBits = 8;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + (1u << kLengthBits) - 1;
constexpr std::size_t kWindow = 1u << kWindowBits;
constexpr std::size_t kHashSize = 1u << 15;
constexpr int kMaxChain = 32;
constexpr std::size_t kDefaultChunkBytes = 1u << 20;
constexpr std::size_t kSeenStretch = 1u << 14;
/// Shortest slice a chunk is split into: a slice warms its chains over up
/// to one window before it, so it covers at least that much.
constexpr std::size_t kMinSliceBytes = kWindow;

constexpr std::uint32_t kHashMul = 2654435761u;

std::uint32_t hash_u32(std::uint32_t x) { return (x * kHashMul) >> (32 - 15); }

/// Width of the seen table's index: about four slots per input byte, from
/// 2^10 up to 2^18 slots (1 MiB). It scales with the range so a small input
/// does not pay for clearing a large table.
unsigned seen_bits_for(std::size_t size) {
  return std::clamp<unsigned>(static_cast<unsigned>(std::bit_width(size)) + 1, 10, 18);
}

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t x;
  std::memcpy(&x, p, 4);
  return hash_u32(x);
}

/// Match length between input[c..] and input[i..] capped at \p max_len,
/// comparing 8 bytes at a time: memcpy + XOR + countr_zero finds the first
/// differing byte without a per-byte loop. Reads stay in bounds because
/// c < i and the word loop only runs while i + len + 8 <= i + max_len
/// <= size. Returns exactly what the byte-at-a-time compare returned.
inline std::size_t match_length(const std::uint8_t* input, std::size_t c, std::size_t i,
                                std::size_t max_len) {
  std::size_t len = 0;
  while (len + 8 <= max_len) {
    std::uint64_t a, b;
    std::memcpy(&a, input + c + len, 8);
    std::memcpy(&b, input + i + len, 8);
    const std::uint64_t x = a ^ b;
    if (x != 0) return len + (static_cast<unsigned>(std::countr_zero(x)) >> 3);
    len += 8;
  }
  while (len < max_len && input[c + len] == input[i + len]) ++len;
  return len;
}

/// The greedy parser over one range [input, input + size): hash chains, the
/// seen table and its upkeep schedule, and the next position to parse.
/// parse() resumes where the previous call stopped, so one parser can emit
/// a range in pieces (the slice stitch re-parses that way).
///
/// The fast path reproduces the reference encoder's stream byte for byte.
/// The argument that lets it restructure the search: the emitted token at
/// a position depends only on the *final* (best_len, best_dist) — and the
/// final best is always the earliest candidate (in chain order, capped at
/// kMaxChain visited) whose common prefix with the probe is maximal, with
/// a match emitted iff that maximum reaches kMinMatch. Intermediate
/// sub-kMinMatch "best" values the reference tracks can never change the
/// output, so candidates whose first four bytes differ from the probe's
/// (their prefix is < kMinMatch) are skipped without a compare. The
/// mechanics on top of that:
///  - each candidate is gated on one 32-bit compare of its first four
///    bytes; only gate survivors run the full match_length (8 bytes at a
///    time: memcpy + XOR + countr_zero). Skipped candidates still count
///    against kMaxChain, exactly like the reference walk;
///  - once a best of >= kMinMatch exists, a surviving candidate must also
///    match at offset best_len to beat it (in bounds: best_len < max_len
///    <= size - i inside the loop — a best_len == max_len match breaks
///    out);
///  - the walk exits on a single compare: cand < limit covers both the -1
///    sentinel and the out-of-window candidate (limit >= 0 always);
///  - tokens stream through a BitWriter::Appender, one fused pre-masked
///    append per token, with word storage reserved up front;
///  - the probe's hash reuses the four probe bytes already loaded for the
///    gate, and the literal-path insert reuses the head entry the search
///    already read (the search never writes the tables);
///  - the head/prev chain tables are 32-bit and leased from the caller's
///    arena so per-chunk runs reuse capacity instead of reallocating, and
///    prev is never pre-filled: entries are written at insert time before
///    any chain walk can read them;
///  - a "seen" table, indexed by a wider hash of the same four bytes,
///    holds the last inserted position per slot. A gate survivor c has the
///    probe's four bytes, so it hashed to the probe's slot when it was
///    inserted, and positions are inserted in increasing order: the slot
///    then holds a position >= c >= limit. A slot below limit therefore
///    proves the walk would find nothing, and the position is a literal
///    without a walk. On high-entropy input (the Huffman-coded SZ stream)
///    that skips most walks, each a chain of dependent loads. Where matches
///    cover nearly every byte the walks are few and the extra store per
///    inserted position is the larger cost, so upkeep is decided per
///    kSeenStretch bytes from the previous stretch's literal share; after a
///    pause the table is trusted again only once the window lies wholly
///    past the restart (limit >= seen_from).
class ChainParser {
 public:
  /// Positions the parser at \p from with every position of the window
  /// before it already in the chains (a warm-up that inserts them without
  /// emitting), so the token parse() emits at a position p >= from is the
  /// one the parse from 0 emits at p, whenever p is on that parse. Tokens
  /// may start anywhere below \p until_max; the tables are sized for that.
  ChainParser(const std::uint8_t* input, std::size_t size, std::size_t from,
              std::size_t until_max, ScratchArena& arena)
      : base_(from > kWindow ? from - kWindow : 0),
        input_(input + base_),
        size_(size - base_),
        head_lease_(arena.ints()),
        prev_lease_(arena.ints()),
        seen_lease_(arena.ints()) {
    // Inserted positions stay below the end of the last token.
    const std::size_t table_end = std::min(size_, until_max - base_ + kMaxMatch);
    head_lease_->assign(kHashSize, -1);
    if (prev_lease_->size() < table_end) prev_lease_->resize(table_end);
    seen_shift_ = 32 - seen_bits_for(table_end);
    seen_lease_->assign(std::size_t{1} << (32 - seen_shift_), -1);
    head_ = head_lease_->data();
    prev_ = prev_lease_->data();
    seen_ = seen_lease_->data();
    i_ = from - base_;
    stretch_end_ = i_ + kSeenStretch;
    const std::size_t warm_end = std::min(i_, size_ >= 4 ? size_ - 3 : 0);
    for (std::size_t j = 0; j < warm_end; ++j) {
      std::uint32_t vj;
      std::memcpy(&vj, input_ + j, 4);
      const std::uint32_t mixed = vj * kHashMul;
      const std::uint32_t h = mixed >> (32 - 15);
      prev_[j] = head_[h];
      head_[h] = static_cast<std::int32_t>(j);
      seen_[mixed >> seen_shift_] = static_cast<std::int32_t>(j);
    }
  }

  /// Emits tokens from the current position while it is below \p until
  /// and returns the position after the last one (>= until, or size).
  std::size_t parse(std::size_t until, BitWriter::Appender& ap);

 private:
  std::size_t base_;  ///< range offset of position 0 of the tables
  const std::uint8_t* input_;
  std::size_t size_;
  ArenaLease<std::int32_t> head_lease_, prev_lease_, seen_lease_;
  std::int32_t* head_ = nullptr;
  std::int32_t* prev_ = nullptr;
  std::int32_t* seen_ = nullptr;
  unsigned seen_shift_ = 0;
  // Every position inserted at or after seen_from_ is in seen while
  // track_seen_ holds.
  bool track_seen_ = true;
  std::size_t seen_from_ = 0;
  std::size_t stretch_end_ = 0;
  std::size_t stretch_literals_ = 0;
  std::size_t i_ = 0;
};

std::size_t ChainParser::parse(std::size_t until, BitWriter::Appender& ap) {
  // The loop runs on locals: the appender's word stores could alias the
  // members, which would pin them to memory.
  const std::uint8_t* const input = input_;
  const std::size_t size = size_;
  std::int32_t* const head = head_;
  std::int32_t* const prev = prev_;
  std::int32_t* const seen = seen_;
  const unsigned seen_shift = seen_shift_;
  bool track_seen = track_seen_;
  std::size_t seen_from = seen_from_;
  std::size_t stretch_end = stretch_end_;
  std::size_t stretch_literals = stretch_literals_;
  std::size_t i = i_;
  until -= base_;
  // The hot compare is against stop, the nearer of the stretch end and
  // until, so the loop keeps no more live values than a whole-range parse.
  std::size_t stop = std::min(stretch_end, until);

  while (true) {
    if (i >= stop) {
      if (i >= until) break;
      const bool track = stretch_literals * 16 >= kSeenStretch;
      if (track && !track_seen) seen_from = i;
      track_seen = track;
      stretch_end = i + kSeenStretch;
      stretch_literals = 0;
      stop = std::min(stretch_end, until);
    }
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    std::uint32_t h = 0;
    std::uint32_t hs = 0;
    std::int32_t cand0 = -1;
    bool hashed = false;
    if (i + kMinMatch <= size) {
      std::uint32_t vi;
      std::memcpy(&vi, input + i, 4);
      const std::uint32_t mixed = vi * kHashMul;
      h = mixed >> (32 - 15);
      hs = mixed >> seen_shift;
      hashed = true;
      cand0 = head[h];
      // Overlap the next position's head load with this walk (pure hint;
      // no effect on the tables or the stream).
      if (i + 5 <= size) __builtin_prefetch(&head[hash4(&input[i + 1])], 1);
      const std::int32_t limit =
          i > kWindow ? static_cast<std::int32_t>(i - kWindow) : 0;
      const bool none_seen = track_seen && static_cast<std::size_t>(limit) >= seen_from &&
                             seen[hs] < limit;
      std::int32_t cand = none_seen ? -1 : cand0;
      const std::size_t max_len = std::min(kMaxMatch, size - i);
      for (int chain = 0; chain < kMaxChain; ++chain) {
        if (cand < limit) break;
        const std::size_t c = static_cast<std::size_t>(cand);
        std::uint32_t vc;
        std::memcpy(&vc, input + c, 4);
        cand = prev[c];
        if (vc == vi &&
            (best_len < kMinMatch || input[c + best_len] == input[i + best_len])) {
          const std::size_t len = match_length(input, c, i, max_len);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (len == max_len) break;
          }
        }
      }
    }
    if (best_len >= kMinMatch) {
      // flag=1, dist-1 (16 bits), len-kMinMatch (8 bits) in one append.
      ap.put(1ull | ((best_dist - 1) << 1) |
                 ((best_len - kMinMatch) << (1 + kWindowBits)),
             1 + kWindowBits + kLengthBits);
      // Insert all covered positions into the hash chains; the first one
      // reuses the search's hash and head entry.
      const std::size_t end = std::min(i + best_len, size >= 4 ? size - 3 : 0);
      std::size_t j = i;
      if (j < end) {
        prev[j] = cand0;
        head[h] = static_cast<std::int32_t>(j);
        if (track_seen) seen[hs] = static_cast<std::int32_t>(j);
        ++j;
      }
      if (track_seen) {
        for (; j < end; ++j) {
          std::uint32_t vj;
          std::memcpy(&vj, input + j, 4);
          const std::uint32_t mixed = vj * kHashMul;
          const std::uint32_t h2 = mixed >> (32 - 15);
          prev[j] = head[h2];
          head[h2] = static_cast<std::int32_t>(j);
          seen[mixed >> seen_shift] = static_cast<std::int32_t>(j);
        }
      }
      for (; j < end; ++j) {
        const std::uint32_t h2 = hash4(&input[j]);
        prev[j] = head[h2];
        head[h2] = static_cast<std::int32_t>(j);
      }
      i += best_len;
    } else {
      ap.put(static_cast<std::uint64_t>(input[i]) << 1, 9);
      if (hashed) {
        prev[i] = cand0;
        head[h] = static_cast<std::int32_t>(i);
        if (track_seen) seen[hs] = static_cast<std::int32_t>(i);
      }
      ++stretch_literals;
      ++i;
    }
  }
  track_seen_ = track_seen;
  seen_from_ = seen_from;
  stretch_end_ = stretch_end;
  stretch_literals_ = stretch_literals;
  i_ = i;
  return i + base_;
}

/// Single-stream encode over a raw byte range (the chunked container calls
/// this once per chunk, so each chunk's window never reaches outside it).
/// The tables are leased from \p arena when given.
std::vector<std::uint8_t> encode_range(const std::uint8_t* input, std::size_t size,
                                       ScratchArena* arena) {
  BitWriter bw;
  // Worst case is all literals: 9 bits per input byte + the 96-bit header.
  // One reserve up front, no growth in the loop.
  bw.reserve_bits(size * 9 + 96);

  // Positions fit int32: the chunked container caps ranges at chunk_bytes
  // and callers of the single-stream path are bounded by the container
  // formats (u32 chunk sizes). Guarded here so a hypothetical >2 GiB range
  // fails loudly instead of corrupting chains.
  require(size <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
          "lzss: range exceeds 2 GiB match-table limit");

  ScratchArena local_arena;
  ChainParser parser(input, size, 0, size, arena != nullptr ? *arena : local_arena);
  BitWriter::Appender ap(bw);
  ap.put(kMagic, 32);
  ap.put(size, 64);
  parser.parse(size, ap);
  ap.flush();
  return bw.finish();
}

/// One slice's speculative parse: the greedy parse started at \p begin as if
/// it were a token boundary, run until it passes the slice end.
struct SliceParse {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< position after the slice's last token
  BitWriter bits;       ///< its tokens; slice 0 also carries the header
};

/// Parses slice [slice.begin, until) of the range [input, input + size).
/// Slice 0 is the start of the true parse and writes the stream header,
/// reserving room for the whole stream so the stitch appends in place.
void parse_slice(const std::uint8_t* input, std::size_t size, std::size_t until,
                 SliceParse& slice, ScratchArena& arena) {
  ChainParser parser(input, size, slice.begin, until, arena);
  const bool first = slice.begin == 0;
  slice.bits.reserve_bits(first ? size * 9 + 96 : (until - slice.begin) * 9 + 64);
  BitWriter::Appender ap(slice.bits);
  if (first) {
    ap.put(kMagic, 32);
    ap.put(size, 64);
  }
  slice.end = parser.parse(until, ap);
}

/// Joins the speculative parses of one range's slices into the stream
/// encode_range() emits for it, byte for byte.
///
/// Why a slice parse can be adopted: every covered position is inserted
/// into the chains (a match inserts all the positions it covers), so when
/// the parse stands at position p the chains hold exactly the positions
/// below p, and the walk only visits those in [p - kWindow, p). The token
/// at p is therefore a function of p and the input alone, not of the
/// tokens before it; a slice parser that warms its chains over the window
/// before its start emits the true token at every true boundary it
/// reaches. Greedy parses that share one position share every token after
/// it. So the stitch walks each slice's tokens (bits_at decodes their
/// lengths) against the true parse: once the true parse lands on a slice
/// token's start, the rest of the slice is appended as it stands. Until
/// then — the slice start fell inside a true match, and the two parses
/// have not met yet — a serial parser warmed at the true position
/// re-parses up to the next slice token, continuing across slices while
/// they do not meet (input made of maximal matches, such as a constant
/// run, may never meet: the result is then a serial parse). On the
/// Huffman-coded SZ stream they meet within a token or two.
std::vector<std::uint8_t> stitch_slices(const std::uint8_t* input, std::size_t size,
                                        std::vector<SliceParse>& slices, ScratchArena& arena) {
  BitWriter out = std::move(slices[0].bits);
  std::size_t t = slices[0].end;  // the true parse has emitted everything below t
  std::optional<ChainParser> fix;  // the serial re-parse, at t while set
  for (std::size_t k = 1; k < slices.size(); ++k) {
    const SliceParse& slice = slices[k];
    const std::uint64_t bits = slice.bits.bit_count();
    std::size_t q = slice.begin;  // the slice token starting at bit b
    std::uint64_t b = 0;
    while (q != t) {
      if (q < t) {
        if (b == bits) break;  // the slice lies wholly behind t
        if (slice.bits.bits_at(b, 1) != 0) {
          q += slice.bits.bits_at(b + 1 + kWindowBits, kLengthBits) + kMinMatch;
          b += 1 + kWindowBits + kLengthBits;
        } else {
          q += 1;
          b += 9;
        }
      } else {
        if (!fix) fix.emplace(input, size, t, size, arena);
        BitWriter::Appender ap(out);
        t = fix->parse(q, ap);
      }
    }
    if (q == t) {
      out.append(slice.bits, b);
      t = slice.end;
      fix.reset();
    }
  }
  return out.finish();
}

/// Slices per chunk for \p workers, or none when no chunk splits (workers
/// not more than chunks, or chunks too short). One slice per worker in all:
/// each extra slice goes to the chunk whose slices are longest, as long as
/// they stay at least kMinSliceBytes long.
std::vector<std::size_t> slice_counts(std::size_t size, std::size_t chunk_bytes,
                                      std::size_t workers) {
  const std::size_t n_chunks = (size + chunk_bytes - 1) / chunk_bytes;
  if (n_chunks >= workers) return {};
  std::vector<std::size_t> counts(n_chunks, 1);
  bool split = false;
  for (std::size_t extra = workers - n_chunks; extra > 0; --extra) {
    std::size_t pick = n_chunks;
    std::size_t longest = 0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t len = std::min(chunk_bytes, size - c * chunk_bytes);
      if (len / (counts[c] + 1) >= kMinSliceBytes && len / counts[c] > longest) {
        pick = c;
        longest = len / counts[c];
      }
    }
    if (pick == n_chunks) break;
    ++counts[pick];
    split = true;
  }
  if (!split) counts.clear();
  return counts;
}

/// The pre-fast-path encoder, byte-at-a-time compares and per-field puts —
/// kept as the byte-identity oracle for the fast path (see
/// lzss_encode_reference()).
std::vector<std::uint8_t> encode_range_reference(const std::uint8_t* input, std::size_t size) {
  BitWriter bw;
  bw.put(kMagic, 32);
  bw.put(size, 64);

  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(size, -1);

  std::size_t i = 0;
  while (i < size) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= size) {
      const std::uint32_t h = hash4(&input[i]);
      std::int64_t cand = head[h];
      int chain = 0;
      while (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow &&
             chain < kMaxChain) {
        const std::size_t c = static_cast<std::size_t>(cand);
        std::size_t len = 0;
        const std::size_t max_len = std::min(kMaxMatch, size - i);
        while (len < max_len && input[c + len] == input[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == max_len) break;
        }
        cand = prev[c];
        ++chain;
      }
    }
    if (best_len >= kMinMatch) {
      bw.put_bit(true);
      bw.put(best_dist - 1, kWindowBits);
      bw.put(best_len - kMinMatch, kLengthBits);
      // Insert all covered positions into the hash chains.
      const std::size_t end = std::min(i + best_len, size >= 4 ? size - 3 : 0);
      for (std::size_t j = i; j < end; ++j) {
        const std::uint32_t h = hash4(&input[j]);
        prev[j] = head[h];
        head[h] = static_cast<std::int64_t>(j);
      }
      i += best_len;
    } else {
      bw.put_bit(false);
      bw.put(input[i], 8);
      if (i + 4 <= size) {
        const std::uint32_t h = hash4(&input[i]);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      ++i;
    }
  }
  return bw.finish();
}

/// Single-stream decode into a caller-sized output range.
void decode_range(const std::uint8_t* input, std::size_t size, std::uint8_t* out,
                  std::size_t expected) {
  BitReader br(input, size);
  require_format(br.get(32) == kMagic, "lzss: bad magic");
  const std::uint64_t n = br.get(64);
  require_format(n == expected, "lzss: declared size mismatch");
  std::size_t produced = 0;
  while (produced < n) {
    if (br.get_bit()) {
      const std::size_t dist = static_cast<std::size_t>(br.get(kWindowBits)) + 1;
      const std::size_t len = static_cast<std::size_t>(br.get(kLengthBits)) + kMinMatch;
      require_format(dist <= produced, "lzss: match distance past start");
      require_format(produced + len <= n, "lzss: match overruns declared size");
      const std::size_t start = produced - dist;
      for (std::size_t j = 0; j < len; ++j) out[produced + j] = out[start + j];
      produced += len;
    } else {
      out[produced++] = static_cast<std::uint8_t>(br.get(8));
    }
  }
}

/// Largest output a payload of \p payload_bytes can legitimately declare:
/// the densest token is a match (25 bits for up to kMaxMatch bytes), so the
/// yield is bounded by kMaxMatch bytes per 25 payload bits. Used to reject
/// corrupted headers before the output allocation.
std::size_t max_declared_output(std::size_t payload_bytes) {
  return (payload_bytes * 8 / 25 + 1) * kMaxMatch;
}

}  // namespace

std::vector<std::uint8_t> lzss_encode(const std::vector<std::uint8_t>& input,
                                      ScratchArena* arena) {
  return encode_range(input.data(), input.size(), arena);
}

std::vector<std::uint8_t> lzss_encode_reference(const std::vector<std::uint8_t>& input) {
  return encode_range_reference(input.data(), input.size());
}

std::vector<std::uint8_t> lzss_decode(const std::vector<std::uint8_t>& input) {
  if (is_chunked_lzss(input)) return lzss_decode_chunked(input, nullptr);
  BitReader br(input);
  require_format(br.get(32) == kMagic, "lzss: bad magic");
  const std::uint64_t n = br.get(64);
  require_format(n <= max_declared_output(input.size()), "lzss: declared size exceeds payload");
  std::vector<std::uint8_t> out(n);
  decode_range(input.data(), input.size(), out.data(), n);
  return out;
}

std::vector<std::uint8_t> lzss_encode_chunked(const std::vector<std::uint8_t>& input,
                                              ThreadPool* pool, std::size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = kDefaultChunkBytes;
  const std::size_t n_chunks =
      input.empty() ? 0 : (input.size() + chunk_bytes - 1) / chunk_bytes;

  // Each chunk is an independent single-stream container; the geometry is
  // fixed by chunk_bytes, never the pool size, so the assembled buffer is
  // byte-identical for any thread count. Each worker range gets its own
  // arena (arenas are not thread-safe) so the head/prev chain tables are
  // allocated once per worker and reused across its chunks.
  std::vector<std::vector<std::uint8_t>> payloads(n_chunks);
  const auto chunk_len = [&](std::size_t c) {
    return std::min(chunk_bytes, input.size() - c * chunk_bytes);
  };
  const std::vector<std::size_t> counts =
      slice_counts(input.size(), chunk_bytes, pool != nullptr ? pool->size() : 1);
  if (counts.empty()) {
    parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
      ScratchArena arena;
      for (std::size_t c = lo; c < hi; ++c) {
        payloads[c] = encode_range(input.data() + c * chunk_bytes, chunk_len(c), &arena);
      }
    }, /*min_grain=*/1);
  } else {
    // Chunks split into equal slices parsed in parallel, each then stitched
    // back into the chunk's exact stream (stitch_slices): the slicing
    // depends on the pool, the bytes do not.
    std::vector<std::vector<SliceParse>> slices(n_chunks);
    std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (chunk, slice)
    for (std::size_t c = 0; c < n_chunks; ++c) {
      slices[c].resize(counts[c]);
      for (std::size_t j = 0; j < counts[c]; ++j) {
        slices[c][j].begin = chunk_len(c) * j / counts[c];
        tasks.emplace_back(c, j);
      }
    }
    parallel_for(pool, tasks.size(), [&](std::size_t lo, std::size_t hi) {
      ScratchArena arena;
      for (std::size_t t = lo; t < hi; ++t) {
        const auto [c, j] = tasks[t];
        const std::size_t until = j + 1 < counts[c] ? slices[c][j + 1].begin : chunk_len(c);
        parse_slice(input.data() + c * chunk_bytes, chunk_len(c), until, slices[c][j], arena);
      }
    }, /*min_grain=*/1);
    parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
      ScratchArena arena;
      for (std::size_t c = lo; c < hi; ++c) {
        payloads[c] =
            stitch_slices(input.data() + c * chunk_bytes, chunk_len(c), slices[c], arena);
      }
    }, /*min_grain=*/1);
  }

  BitWriter header;
  header.put(kChunkedMagic, 32);
  header.put(input.size(), 64);
  header.put(chunk_bytes, 32);
  header.put(n_chunks, 32);
  std::vector<std::uint8_t> out = header.finish();
  std::size_t total_payload = 0;
  for (const auto& p : payloads) total_payload += p.size();
  out.reserve(out.size() + 4 * n_chunks + total_payload);
  for (const auto& p : payloads) {
    const auto len = static_cast<std::uint32_t>(p.size());
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  for (const auto& p : payloads) out.insert(out.end(), p.begin(), p.end());
  return out;
}

bool is_chunked_lzss(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return false;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) magic |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  return magic == kChunkedMagic;
}

std::vector<std::uint8_t> lzss_decode_chunked(const std::vector<std::uint8_t>& bytes,
                                              ThreadPool* pool) {
  BitReader br(bytes);
  require_format(br.get(32) == kChunkedMagic, "lzss-chunked: bad magic");
  const std::uint64_t total = br.get(64);
  const std::size_t chunk_bytes = static_cast<std::size_t>(br.get(32));
  const std::size_t n_chunks = static_cast<std::size_t>(br.get(32));
  require_format(chunk_bytes > 0 || n_chunks == 0, "lzss-chunked: zero chunk size");
  // Bound the declared output before allocating it, and compute the chunk
  // count without forming total + chunk_bytes - 1 (which wraps for a
  // corrupted total near 2^64).
  require_format(total <= max_declared_output(bytes.size()),
                 "lzss-chunked: declared size exceeds payload");
  const std::size_t want_chunks =
      chunk_bytes == 0 ? 0 : total / chunk_bytes + (total % chunk_bytes != 0 ? 1 : 0);
  require_format(n_chunks == want_chunks, "lzss-chunked: chunk count mismatch");

  std::size_t pos = static_cast<std::size_t>((br.position() + 7) / 8);
  // Each chunk costs a 4-byte table entry; reject counts the remaining
  // bytes cannot hold before sizing the table.
  require_format(n_chunks <= (bytes.size() - std::min(pos, bytes.size())) / 4,
                 "lzss-chunked: chunk count exceeds payload");
  struct ChunkMeta {
    std::size_t offset, len;
  };
  std::vector<ChunkMeta> metas(n_chunks);
  for (auto& m : metas) {
    require_format(pos + 4 <= bytes.size(), "lzss-chunked: truncated chunk table");
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    m.len = len;
  }
  for (auto& m : metas) {
    m.offset = pos;
    pos += m.len;
    require_format(pos <= bytes.size(), "lzss-chunked: chunk overruns buffer");
  }

  std::vector<std::uint8_t> out(total);
  parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t begin = c * chunk_bytes;
      const std::size_t expected = std::min(chunk_bytes, static_cast<std::size_t>(total) - begin);
      decode_range(bytes.data() + metas[c].offset, metas[c].len, out.data() + begin, expected);
    }
  }, /*min_grain=*/1);
  return out;
}

}  // namespace cosmo
