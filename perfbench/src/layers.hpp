// Per-layer measurements taken from direct calls into each library module on
// one of the workload's own grid fields. Every traced run calls this, so
// every workload reports the same per-layer metric set.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "common/field.hpp"
#include "common/thread_pool.hpp"
#include "foresight/compressor.hpp"

namespace perfbench {

/// Mid-range config of a codec's primary mode for \p field: abs and
/// accuracy bounds at 1e-3 of the value range, 8 bits/value for rate,
/// 1e-2 for pw_rel and 16 planes for precision.
cosmo::foresight::CompressorConfig primary_config(const std::string& codec,
                                                  const cosmo::Field& field);

/// crc32 of a float buffer's bytes.
std::uint32_t values_crc(const std::vector<float>& values);

/// Fills the module-level per-layer metrics (sz/zfp/fz, codec, io,
/// foresight session, gpu, analysis/fft, foresightd framing, json) from
/// direct calls on \p field, and records a span per call. Outputs are
/// checked against each other (session vs direct stream, encode/decode
/// round trips); a disagreement is a correctness failure in class "layers".
void probe_layers(const cosmo::Field& field, cosmo::ThreadPool* pool, std::uint64_t seed,
                  Report& report, Trace& trace);

/// Sets every workload-scoped per-layer metric (optimizer, halo, daemon)
/// the workload did not report to zero: it does not exercise that layer.
void zero_workload_layers(Report& report);

/// Self time of the span \p root over its duration: the share of the
/// measured phase no layer span covers.
double unattributed_frac(const Trace& trace, std::int64_t root);

}  // namespace perfbench
