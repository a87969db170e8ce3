/// \file lzss.hpp
/// \brief LZSS dictionary coder (hash-chain match finder, 64 KiB window).
///
/// Stands in for the Zstd lossless back-end the released SZ uses after
/// Huffman coding. The role in the pipeline — squeezing residual
/// redundancy out of the Huffman header + payload and of the
/// unpredictable-data section — is identical; only the absolute speed
/// differs, which is irrelevant to the reproduction's quality results.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"

namespace cosmo {

class ScratchArena;

/// Compresses \p input; output is self-describing (stores original size).
/// When \p arena is given, the hash-chain match tables are leased from it
/// (and returned on exit) so repeated calls reuse their capacity; the arena
/// must not be shared across threads. Streams are byte-identical with or
/// without an arena.
std::vector<std::uint8_t> lzss_encode(const std::vector<std::uint8_t>& input,
                                      ScratchArena* arena = nullptr);

/// Encodes with the pre-fast-path encoder (byte-at-a-time match compares,
/// per-field token emission, freshly allocated chain tables). Exposed so
/// tests can pin the fast encode path to the reference stream byte for
/// byte; not a production entry point.
std::vector<std::uint8_t> lzss_encode_reference(const std::vector<std::uint8_t>& input);

/// Inverse of lzss_encode() or lzss_encode_chunked() (dispatches on the
/// magic). Throws FormatError on malformed input.
std::vector<std::uint8_t> lzss_decode(const std::vector<std::uint8_t>& input);

/// Chunked container: the input is split into fixed chunks of \p chunk_bytes
/// (0 selects the default, 1 MiB) and each chunk is an independent LZSS
/// stream, so both directions parallelize over chunks on \p pool. The chunk
/// geometry is fixed by chunk_bytes — never the pool size — so the output is
/// byte-identical for any thread count. Matches at chunk boundaries are
/// forfeited (~0.1% ratio loss at the default size).
///
/// When a pool has more workers than there are chunks, the encoder also
/// splits inside chunks: one slice per worker in all (each at least one
/// 64 KiB window long), each parsed greedily from its start by a worker
/// that first warms its hash chains over the window before it, then a
/// stitch adopts each slice's tokens from the first position where the
/// true parse lands on one and re-parses serially until then. The token at
/// a position depends only on the input, never on the tokens before it
/// (every covered position is in the chains), so each chunk's stream stays
/// byte-identical to the serial one (and to lzss_encode_reference); the
/// slicing depends on the pool, the bytes do not. A null or one-worker pool
/// runs the plain per-chunk encoder.
std::vector<std::uint8_t> lzss_encode_chunked(const std::vector<std::uint8_t>& input,
                                              ThreadPool* pool = nullptr,
                                              std::size_t chunk_bytes = 0);

/// True when \p bytes starts with the chunked-container magic.
bool is_chunked_lzss(const std::vector<std::uint8_t>& bytes);

/// Decodes an lzss_encode_chunked() container, chunk-parallel on \p pool.
std::vector<std::uint8_t> lzss_decode_chunked(const std::vector<std::uint8_t>& bytes,
                                              ThreadPool* pool = nullptr);

}  // namespace cosmo
