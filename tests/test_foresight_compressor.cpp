#include <gtest/gtest.h>

#include <cmath>

#include "foresight/compressor.hpp"
#include "random/rng.hpp"

namespace cosmo::foresight {
namespace {

Field smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  Field f("field", dims);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    f.data[i] = static_cast<float>(100.0 * std::sin(0.01 * static_cast<double>(i)) +
                                   rng.normal());
  }
  return f;
}

TEST(Registry, AllCompressorsAvailable) {
  const auto names = available_compressors();
  ASSERT_EQ(names.size(), 7u);  // the paper's five plus fz-cpu / fz-gpu
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  for (const auto& name : names) {
    const auto codec = make_compressor(name, &sim);
    EXPECT_EQ(codec->name(), name);
    EXPECT_FALSE(codec->supported_modes().empty());
  }
}

TEST(Registry, GpuCompressorsNeedSimulator) {
  EXPECT_THROW(make_compressor("gpu-sz", nullptr), InvalidArgument);
  EXPECT_THROW(make_compressor("cuzfp", nullptr), InvalidArgument);
  EXPECT_THROW(make_compressor("fz-gpu", nullptr), InvalidArgument);
  EXPECT_NO_THROW(make_compressor("sz-cpu", nullptr));
  EXPECT_NO_THROW(make_compressor("zfp-cpu", nullptr));
  EXPECT_NO_THROW(make_compressor("fz-cpu", nullptr));
  EXPECT_THROW(make_compressor("nonexistent", nullptr), InvalidArgument);
}

TEST(Config, LabelFormat) {
  EXPECT_EQ((CompressorConfig{"abs", 0.2}.label()), "abs=0.2");
  EXPECT_EQ((CompressorConfig{"rate", 4.0}.label()), "rate=4");
  EXPECT_EQ((CompressorConfig{"pw_rel", 0.01}.label()), "pw_rel=0.01");
}

TEST(Reshape, PaperDimensionConversion) {
  // (ceil(n/64), 8, 8) — the 2,097,152 x 8 x 8 layout at HACC scale.
  const Dims d = reshape_1d_to_3d(1073726359);
  EXPECT_EQ(d.ny, 8u);
  EXPECT_EQ(d.nz, 8u);
  EXPECT_GE(d.count(), 1073726359u);
  EXPECT_LT(d.count() - 1073726359u, 64u);  // padding below one row
  EXPECT_EQ(reshape_1d_to_3d(64).nx, 1u);
  EXPECT_EQ(reshape_1d_to_3d(65).nx, 2u);
}

TEST(Compressor, SzCpuAbsHonorsBound) {
  const auto codec = make_compressor("sz-cpu");
  const Field f = smooth_field(Dims::d3(16, 16, 16), 161);
  const auto session = codec->open_session();
  const CompressResult c = session->compress(f, {"abs", 0.05});
  const DecompressResult d = session->decompress(c);
  ASSERT_EQ(d.values.size(), f.data.size());
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(d.values[i] - f.data[i]), 0.05 * (1 + 1e-9));
  }
  EXPECT_FALSE(c.telemetry.has_gpu_timing);
  EXPECT_GE(c.telemetry.seconds, 0.0);
  EXPECT_TRUE(c.throughput_reportable);
}

TEST(Compressor, SzCpuPwrelMode) {
  const auto codec = make_compressor("sz-cpu");
  Field f = smooth_field(Dims::d3(8, 8, 8), 162);
  for (auto& v : f.data) v = std::fabs(v) + 1.0f;
  const auto session = codec->open_session();
  const DecompressResult d = session->decompress(session->compress(f, {"pw_rel", 0.05}));
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(d.values[i] - f.data[i]) / f.data[i],
              0.05 * (1 + 1e-6));
  }
}

TEST(Compressor, ZfpCpuBothModes) {
  const auto codec = make_compressor("zfp-cpu");
  const Field f = smooth_field(Dims::d3(16, 16, 16), 163);
  const auto session = codec->open_session();
  const CompressResult rate_c = session->compress(f, {"rate", 8.0});
  EXPECT_LE(rate_c.bytes.size() * 8.0 / f.data.size(), 8.5);
  const DecompressResult acc_d = session->decompress(session->compress(f, {"accuracy", 0.1}));
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(acc_d.values[i] - f.data[i]), 0.1);
  }
}

TEST(Compressor, UnsupportedModeRejected) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field f = smooth_field(Dims::d3(8, 8, 8), 164);
  const auto rejects = [&](const char* name, const CompressorConfig& config) {
    EXPECT_THROW((void)make_compressor(name, &sim)->open_session()->compress(f, config),
                 InvalidArgument)
        << name;
  };
  rejects("cuzfp", {"abs", 0.1});
  rejects("gpu-sz", {"rate", 4.0});
  rejects("sz-cpu", {"rate", 4.0});
}

TEST(Compressor, RejectsValuesNoCodecCanHonor) {
  // Config values arrive from pipeline JSON, the CLI and daemon requests.
  // Every mode needs a finite, positive value, and a precision is a whole
  // bit count: 4294967297 once wrapped to precision 1 and 2.5 truncated to
  // 2. The error names the codec, the mode and the value.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field f = smooth_field(Dims::d3(8, 8, 8), 167);
  const auto rejects = [&](const char* name, const char* mode, double value,
                           const char* value_text) {
    try {
      (void)make_compressor(name, &sim)->open_session()->compress(f, {mode, value});
      ADD_FAILURE() << name << " accepted " << mode << " " << value;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      for (const char* part : {name, mode, value_text}) {
        EXPECT_NE(what.find(part), std::string::npos) << what << " lacks " << part;
      }
    }
  };
  for (const char* name : {"zfp-cpu", "zfp-omp"}) {
    rejects(name, "rate", std::nan(""), "nan");
    rejects(name, "rate", INFINITY, "inf");
    rejects(name, "rate", 0.0, "0");
    rejects(name, "accuracy", -1e-3, "-0.001");
  }
  rejects("zfp-cpu", "precision", 4294967297.0, "4294967297");
  rejects("zfp-cpu", "precision", -4294967295.0, "-4294967295");
  rejects("zfp-cpu", "precision", 4294967304.0, "4294967304");
  rejects("zfp-cpu", "precision", 2.5, "2.5");
  for (const char* name : {"sz-cpu", "gpu-sz"}) {
    rejects(name, "abs", 0.0, "0");
    rejects(name, "abs", -1.0, "-1");
    rejects(name, "abs", std::nan(""), "nan");
  }
  // Whole, in-range precisions still compress.
  EXPECT_NO_THROW((void)make_compressor("zfp-cpu")->open_session()->compress(f, {"precision", 16}));
}

TEST(Compressor, GpuSzAuto3dConversionFor1d) {
  // The paper's procedure: 1-D HACC arrays are reshaped before GPU-SZ.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("gpu-sz", &sim);
  const Field f = smooth_field(Dims::d1(10000), 165);
  const auto session = codec->open_session();
  const CompressResult c = session->compress(f, {"abs", 0.1});
  const DecompressResult d = session->decompress(c);
  ASSERT_EQ(d.values.size(), f.data.size());  // padding dropped
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(d.values[i] - f.data[i]), 0.1 * (1 + 1e-9));
  }
  EXPECT_TRUE(c.telemetry.has_gpu_timing);
  EXPECT_FALSE(c.throughput_reportable);  // GPU-SZ prototype
}

TEST(Compressor, CuZfpProducesGpuTiming) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const Field f = smooth_field(Dims::d3(16, 16, 16), 166);
  const auto session = codec->open_session();
  const CompressResult c = session->compress(f, {"rate", 4.0});
  const DecompressResult d = session->decompress(c);
  EXPECT_TRUE(c.telemetry.has_gpu_timing);
  EXPECT_TRUE(c.throughput_reportable);
  EXPECT_GT(c.telemetry.gpu_timing.kernel, 0.0);
  EXPECT_GT(d.telemetry.gpu_timing.memcpy, 0.0);
  EXPECT_DOUBLE_EQ(c.telemetry.seconds, c.telemetry.gpu_timing.total());
}

TEST(Compressor, ZfpOmpMatchesZfpCpuQuality) {
  const auto omp = make_compressor("zfp-omp");
  const auto cpu = make_compressor("zfp-cpu");
  const Field f = smooth_field(Dims::d3(16, 16, 32), 168);
  const auto omp_session = omp->open_session();
  const auto cpu_session = cpu->open_session();
  const CompressorConfig rate{"rate", 8.0};
  const DecompressResult omp_d = omp_session->decompress(omp_session->compress(f, rate));
  const DecompressResult cpu_d = cpu_session->decompress(cpu_session->compress(f, rate));
  ASSERT_EQ(omp_d.values.size(), f.data.size());
  double omp_rmse = 0.0, cpu_rmse = 0.0;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    omp_rmse += std::pow(omp_d.values[i] - f.data[i], 2.0);
    cpu_rmse += std::pow(cpu_d.values[i] - f.data[i], 2.0);
  }
  EXPECT_NEAR(std::sqrt(omp_rmse), std::sqrt(cpu_rmse),
              std::sqrt(cpu_rmse) * 0.1 + 1e-6);
  // Accuracy mode holds its bound through the chunked path too.
  const DecompressResult acc =
      omp_session->decompress(omp_session->compress(f, {"accuracy", 0.05}));
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(acc.values[i] - f.data[i]), 0.05);
  }
}

TEST(Compressor, CuZfp1dReshapeRoundTrip) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const Field f = smooth_field(Dims::d1(5000), 167);
  const auto session = codec->open_session();
  const DecompressResult d = session->decompress(session->compress(f, {"rate", 16.0}));
  ASSERT_EQ(d.values.size(), f.data.size());
  double rmse = 0.0;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    rmse += std::pow(d.values[i] - f.data[i], 2.0);
  }
  rmse = std::sqrt(rmse / static_cast<double>(f.data.size()));
  EXPECT_LT(rmse, 1.0);
}

}  // namespace
}  // namespace cosmo::foresight
