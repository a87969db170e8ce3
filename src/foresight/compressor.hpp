/// \file compressor.hpp
/// \brief Foresight's uniform compressor interface.
///
/// CBench evaluates every codec through this interface. The codec roster is
/// open: a codec registers in the CodecRegistry (codec_registry.hpp) with a
/// CodecCapabilities descriptor plus its host encode/decode pair, and
/// make_compressor / available_compressors are thin views over that
/// registry. The built-in set covers the paper's evaluation codecs (gpu-sz,
/// cuzfp, sz-cpu, zfp-cpu, zfp-omp) plus the FZ-GPU-style bitshuffle
/// pipeline (fz-cpu, fz-gpu); `foresight_cli codecs` prints the live roster.
///
/// The execution path is staged: a Compressor opens a CodecSession, and the
/// session exposes compress() and decompress() separately so sweeps can
/// reuse buffers across iterations, keep compressed streams around for
/// several decompressions, or skip decompression entirely. Both classes are
/// concrete: one session class runs every codec from its registry entry
/// (capabilities + host encode/decode pair). A device codec is its host
/// codec plus the simulator's modeled {init, kernel, memcpy, free}
/// breakdown; on device OOM the stage keeps the stream the host codec
/// already produced and records a CPU fallback.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/field.hpp"
#include "common/scratch_arena.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "foresight/codec_registry.hpp"
#include "foresight/shape_adapter.hpp"
#include "gpu/sim.hpp"

namespace cosmo::foresight {

/// One compression configuration, e.g. {mode: "abs", value: 0.2}.
struct CompressorConfig {
  std::string mode;    ///< "abs" | "pw_rel" | "rate" | "accuracy" | "precision"
  double value = 0.0;  ///< error bound (abs/pw_rel/accuracy), bits/value (rate),
                       ///< or bit count (precision)

  [[nodiscard]] std::string label() const;
};

/// Output of the compression stage. Self-contained: everything decompress()
/// needs travels with the stream. The per-stage timing/fallback/retry facts
/// live in one StageTelemetry (shared with DecompressResult and
/// CBenchResult).
struct CompressResult {
  std::vector<std::uint8_t> bytes;
  /// Value count of the original field, before any 1-D -> 3-D zero padding;
  /// decompress() truncates reconstructions back to this. 0 means unknown
  /// (no truncation).
  std::size_t original_values = 0;
  StageTelemetry telemetry;
  bool throughput_reportable = true;  ///< false for the GPU-SZ prototype
};

/// Output of the decompression stage.
struct DecompressResult {
  std::vector<float> values;
  StageTelemetry telemetry;
};

/// One codec execution context: the one session class every registered
/// codec runs through. Each stage validates the config, times the codec's
/// host encode/decode pair (1-D fields reshaped first when the codec needs
/// 3-D input), and, for device codecs, models the device execution around
/// it. Sessions own (or borrow) a ScratchArena so repeated compress/
/// decompress calls reuse buffer capacity; passing the in/out overloads the
/// same result objects across iterations reuses their capacity too. A
/// session is NOT thread-safe — the sweep scheduler opens one per worker.
class CodecSession {
 public:
  /// Compresses \p field under \p config into \p out, reusing \p out's
  /// buffer capacity. Throws InvalidArgument for an unsupported mode, a
  /// non-finite or non-positive value, or a non-integer precision.
  void compress(const Field& field, const CompressorConfig& config, CompressResult& out);

  /// Decompresses \p compressed into \p out, reusing \p out's buffer
  /// capacity. Reconstructions are truncated to compressed.original_values
  /// (dropping reshape padding) when that is non-zero.
  void decompress(const CompressResult& compressed, DecompressResult& out);

  /// By-value conveniences over the in/out overloads.
  [[nodiscard]] CompressResult compress(const Field& field, const CompressorConfig& config);
  [[nodiscard]] DecompressResult decompress(const CompressResult& compressed);

  /// The arena backing this session's scratch allocations.
  [[nodiscard]] ScratchArena& arena() { return *arena_; }

  /// The pool this session's intra-field kernels fan out on (null = serial).
  /// Device codecs thread their host encode/decode on it too.
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

 private:
  friend class Compressor;
  /// Borrows \p arena, or owns a private one when \p arena is null. Only
  /// device codecs keep \p sim; every codec keeps \p pool.
  CodecSession(const CodecRegistry::Entry& codec, gpu::GpuSimulator* sim, ScratchArena* arena,
               ThreadPool* pool);

  const CodecRegistry::Entry& codec_;
  gpu::GpuSimulator* sim_;  ///< non-null exactly for device codecs
  std::unique_ptr<ScratchArena> owned_;
  ScratchArena* arena_;
  ThreadPool* pool_;
};

/// A compressor as seen by CBench: a registry entry that describes a codec
/// (through its CodecCapabilities) and opens execution sessions for it.
/// Name, modes and concurrency facts are all views over capabilities(), so
/// a codec's single source of truth is its registry descriptor.
class Compressor {
 public:
  /// The registry descriptor for this codec.
  [[nodiscard]] const CodecCapabilities& capabilities() const { return codec_.caps; }

  [[nodiscard]] std::string name() const { return capabilities().name; }
  [[nodiscard]] std::vector<std::string> supported_modes() const {
    return capabilities().modes;
  }

  /// True when sessions of this compressor may run concurrently with
  /// identical results. False for the simulated-GPU codecs (they share the
  /// simulator's jitter stream, so modeled timings are call-order
  /// dependent) and for zfp-omp (its chunks already occupy the global
  /// pool); the sweep scheduler runs those serially.
  [[nodiscard]] bool concurrent_sessions_safe() const {
    return capabilities().concurrent_sessions_safe;
  }

  /// Opens a session; pass an arena to share scratch buffers, or null to
  /// let the session own one. \p pool threads the session's intra-field
  /// hot paths (null = serial); every host codec guarantees byte-identical
  /// output for any thread count. The simulated-GPU codecs thread their
  /// host twin on the pool as well: their modeled timings stay call-order
  /// deterministic because the simulator runs once per stage on the
  /// calling thread, after the pooled host encode/decode has joined, so
  /// the pool changes wall time only. zfp-omp ignores the pool (its chunks
  /// fan out over the global pool).
  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena = nullptr,
                                                           ThreadPool* pool = nullptr) const;

 private:
  friend class CodecRegistry;
  Compressor(const CodecRegistry::Entry& codec, gpu::GpuSimulator* sim)
      : codec_(codec), sim_(sim) {}

  const CodecRegistry::Entry& codec_;
  gpu::GpuSimulator* sim_;
};

/// Creates a compressor by registered name (CodecRegistry::make). Device
/// codecs need a simulator; passing null for them throws InvalidArgument,
/// as does an unknown name (the message lists the registered codecs).
std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim = nullptr);

/// Registered codec names in registration (= evaluation) order.
std::vector<std::string> available_compressors();

}  // namespace cosmo::foresight
