/// \file codec_registry.hpp
/// \brief Self-registering codec catalog: capabilities + host codecs.
///
/// The paper's workflow compares *sets* of compressors, so the codec
/// roster must be open. Adding a codec is one registration: a
/// CodecCapabilities descriptor plus the codec's host encode/decode pair.
/// There is no per-codec session or compressor class: one CodecSession
/// class (compressor.hpp) runs every codec, and a device codec is its host codec
/// plus the simulator's timing model, selected by needs_device and
/// kernel_profile. Every layer that used to string-match codec names —
/// make_compressor, the sweep-lattice builder, the optimizer's config
/// pruning, the pipeline's plot styling, the CLI, and the bench figure
/// binaries — queries capabilities instead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/field.hpp"

namespace cosmo {
class ThreadPool;
}

namespace cosmo::gpu {
class GpuSimulator;
}

namespace cosmo::foresight {

class Compressor;
struct CompressorConfig;

/// One axis of a codec's default sweep lattice: the mode plus how to turn
/// a field into concrete config values.
struct SweepAxis {
  enum class Kind {
    kFixedValues,     ///< use \c values verbatim (e.g. ZFP rates)
    kRangeFractions,  ///< log-spaced fractions of the field's value range
    kLogValues,       ///< log-spaced absolute values, field-independent
  };
  std::string mode;
  Kind kind = Kind::kFixedValues;
  std::vector<double> values;  ///< kFixedValues only
  double lo = 0.0;             ///< kRangeFractions / kLogValues span
  double hi = 0.0;
  std::size_t count = 0;
};

/// Everything the dispatch layers need to know about a codec without
/// naming it.
struct CodecCapabilities {
  std::string name;
  std::string summary;                  ///< one line for `foresight_cli codecs`
  std::vector<std::string> modes;       ///< supported CompressorConfig modes
  bool needs_device = false;            ///< host codec + modeled device timing
  bool concurrent_sessions_safe = true; ///< sessions may run on parallel workers
  bool throughput_reportable = true;    ///< kernel GB/s is meaningful for this codec
  bool plot_dashed = false;             ///< drawn dashed in rate-distortion figures
  /// sz::estimate_rate predicts this codec's abs-mode bitrate (the codec's
  /// abs path is the SZ prediction+quantization pipeline). The guided
  /// optimizer uses the estimator for pruned-candidate CR predictions.
  bool abs_rate_estimable = false;
  std::string kernel_profile;           ///< GpuSimulator::kernel_rates() key; empty = host-only
  /// 1-D fields are reshaped to (ceil(n/64), 8, 8) before encoding — the
  /// paper's dimension conversion (Section IV-B4) for 3-D-only codecs.
  bool reshape_1d = false;
  std::vector<SweepAxis> default_sweep; ///< per-mode lattices; front() is the primary

  [[nodiscard]] bool supports_mode(const std::string& mode) const;
  /// "abs, pw_rel" — for error messages and the CLI table.
  [[nodiscard]] std::string modes_label() const;
  /// Throws InvalidArgument listing the supported modes when \p mode is
  /// not one of them.
  void require_mode(const std::string& mode) const;
};

/// A codec's bit-exact host implementation. Host sessions run it under a
/// wall-clock timer; device sessions run the same pair and model the
/// device timing around it, so host and device streams are identical.
struct HostCodec {
  /// Encodes \p values (extents \p dims) under \p config into \p out
  /// (cleared, capacity kept). \p pool threads intra-field work (null =
  /// serial); the output must not depend on it. The config's mode and value
  /// have already been validated against the capabilities.
  std::function<void(std::span<const float> values, const Dims& dims,
                     const CompressorConfig& config, ThreadPool* pool,
                     std::vector<std::uint8_t>& out)>
      encode;
  /// Decodes a stream produced by encode into \p out (capacity kept).
  std::function<void(std::span<const std::uint8_t> bytes, ThreadPool* pool,
                     std::vector<float>& out)>
      decode;
};

/// The process-wide codec catalog. Registration order is presentation
/// order (available_compressors(), the CLI table, bench iteration).
class CodecRegistry {
 public:
  /// One registered codec. Entries never move once added, so sessions and
  /// the tracer (which keeps span-name pointers) can refer to them.
  struct Entry {
    CodecCapabilities caps;
    HostCodec host;
    std::string compress_span;    ///< "<name>.compress"
    std::string decompress_span;  ///< "<name>.decompress"
  };

  /// The singleton, with all built-in codecs registered on first use.
  static CodecRegistry& instance();

  /// Registers a codec. Throws InvalidArgument on empty/duplicate names, an
  /// empty mode list, or a missing encode/decode function.
  void add(CodecCapabilities caps, HostCodec host);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Throws InvalidArgument (listing registered names) for unknown codecs.
  [[nodiscard]] const CodecCapabilities& capabilities(const std::string& name) const;
  /// Constructs a codec; enforces needs_device (a device codec without a
  /// simulator is InvalidArgument). Unknown names list the registry. Host
  /// codecs ignore \p sim.
  [[nodiscard]] std::unique_ptr<Compressor> make(const std::string& name,
                                                 gpu::GpuSimulator* sim) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  CodecRegistry() = default;
  [[nodiscard]] const Entry* find(const std::string& name) const;
  [[nodiscard]] std::string names_label() const;

  std::deque<Entry> entries_;
};

namespace detail {
/// Registration hooks, called once from CodecRegistry::instance(). Static
/// libraries drop unreferenced global initializers, so self-registration
/// is routed through these explicit calls instead of static objects.
void register_paper_codecs(CodecRegistry& registry);  // compressor.cpp
void register_fz_codecs(CodecRegistry& registry);     // fz_compressor.cpp
}  // namespace detail

}  // namespace cosmo::foresight
