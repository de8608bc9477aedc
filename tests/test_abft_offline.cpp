#include "abft/offline.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "abft/options.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "fault/injector.hpp"
#include "fft/fft.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

void expect_matches_reference(const std::vector<cplx>& x,
                              const std::vector<cplx>& got, double scale = 1.0) {
  const auto want = dft::reference_dft(x);
  const double tol = 1e-10 * static_cast<double>(x.size()) * scale;
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << j;
  }
}

TEST(OfflineAbft, FaultFreeMatchesPlainFftExactly) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kUniform, 1);
  const Options opts = Options::offline_opt(false);
  // The protection layer must be bitwise transparent to the engine it
  // wraps.
  const std::vector<cplx> plain = fft::fft(x);
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(out[j], plain[j]) << j;
  EXPECT_EQ(stats.full_restarts, 0u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  EXPECT_EQ(stats.verifications, 1u);
}

class OfflinePreset : public ::testing::TestWithParam<int> {
 protected:
  static Options preset(int id) {
    switch (id) {
      case 0:
        return Options::offline_naive(false);
      case 1:
        return Options::offline_opt(false);
      case 2:
        return Options::offline_naive(true);
      default:
        return Options::offline_opt(true);
    }
  }
};

TEST_P(OfflinePreset, FaultFreeCorrectAcrossSizes) {
  for (std::size_t n : {8, 64, 100, 256, 1024}) {
    auto x = random_vector(n, InputDistribution::kNormal, 100 + n);
    std::vector<cplx> out(n);
    Stats stats;
    abft::offline_transform(x.data(), out.data(), n, preset(GetParam()),
                            stats);
    expect_matches_reference(x, out);
    EXPECT_EQ(stats.full_restarts, 0u) << n;
  }
}

TEST_P(OfflinePreset, ComputationalFaultTriggersFullRestart) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 7);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kWholeFftOutput, 0, 99, {3.0, -1.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.full_restarts, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(inj.fired_count(), 1u);
}

std::string offline_preset_name(const ::testing::TestParamInfo<int>& pi) {
  static const char* const kNames[] = {"naive", "opt", "naive_mem", "opt_mem"};
  return kNames[pi.param];
}

INSTANTIATE_TEST_SUITE_P(AllPresets, OfflinePreset, ::testing::Range(0, 4),
                         offline_preset_name);

TEST(OfflineAbft, InputMemoryFaultLocatedCorrectedAndRepaired) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kUniform, 9);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 123,
                                     {40.0, -7.0}));
  Options opts = Options::offline_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.full_restarts, 1u);
  // The caller's input array was repaired in place.
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(x[j] - pristine[j]), 0.0, 1e-9) << j;
  }
}

TEST(OfflineAbft, InputMemoryFaultWithClassicChecksums) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 11);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 31,
                                     {-25.0, 14.0}));
  Options opts = Options::offline_naive(true);  // classic r1/r2
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(OfflineAbft, MemoryFaultWithoutMemoryFtIsUncorrectable) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 13);
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 5,
                                     {50.0, 0.0}));
  Options opts = Options::offline_opt(false);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  EXPECT_THROW(abft::offline_transform(x.data(), out.data(), n, opts, stats),
               UncorrectableError);
}

TEST(OfflineAbft, OutputMemoryFaultRecoveredByRestart) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kNormal, 15);
  Injector inj;
  inj.schedule(
      FaultSpec::bit_flip(Phase::kFinalOutput, 0, 200, 55, false));
  Options opts = Options::offline_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.full_restarts, 1u);
}

TEST(OfflineAbft, TinyPerturbationBelowEtaPassesThrough) {
  // Detection has a floor: a disturbance far below eta is indistinguishable
  // from round-off. This documents (and pins) that behavior.
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 17);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kWholeFftOutput, 0, 10,
                                        {1e-14, 0.0}));
  Options opts = Options::offline_opt(false);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  EXPECT_EQ(stats.full_restarts, 0u);
}

TEST(OfflineAbft, EtaOverrideForcesSensitivity) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 19);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kWholeFftOutput, 0, 10,
                                        {1e-7, 0.0}));
  Options opts = Options::offline_opt(false);
  opts.eta_override = 1e-9;
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  EXPECT_EQ(stats.full_restarts, 1u);  // caught thanks to the tighter eta
}

TEST(OfflineAbft, RejectsDegenerateSizes) {
  std::vector<cplx> x(12), out(12);
  Stats stats;
  EXPECT_THROW(abft::offline_transform(x.data(), out.data(), 12,
                                       Options::offline_opt(false), stats),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftfft
