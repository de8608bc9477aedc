#include "abft/offline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
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

// A located input memory fault small against the input (sum |delta| <=
// ||x||_2) is removed from the computed spectrum by an O(n) update that is
// then re-checked; the transform is not re-executed.
void expect_near_plain_fft(const std::vector<cplx>& pristine,
                           const std::vector<cplx>& got) {
  const std::vector<cplx> want = fft::fft(pristine);
  double peak = 0.0;
  for (const cplx& v : want) peak = std::max(peak, std::abs(v));
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_LE(std::abs(got[k] - want[k]), 1e-12 * peak) << k;
  }
}

void expect_repaired(const std::vector<cplx>& x,
                     const std::vector<cplx>& pristine) {
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_LE(std::abs(x[j] - pristine[j]), 1e-9) << j;
  }
}

// A re-execution over the repaired input x would return fft::fft(x)
// bitwise; an updated spectrum keeps the rounding of the first transform.
void expect_not_reexecuted(const std::vector<cplx>& x,
                           const std::vector<cplx>& got) {
  EXPECT_NE(got, fft::fft(x));
}

struct UpdateCase {
  std::size_t n;
  InputDistribution dist;
};

std::string update_case_label(const UpdateCase& c) {
  return "n" + std::to_string(c.n) +
         (c.dist == InputDistribution::kUniform ? "_uniform" : "_normal");
}

// Test listings print the case's label, not the bytes of the struct (whose
// padding is uninitialised and changed from run to run).
void PrintTo(const UpdateCase& c, std::ostream* os) {
  *os << update_case_label(c);
}

class OfflineAbftUpdate : public ::testing::TestWithParam<UpdateCase> {};

TEST_P(OfflineAbftUpdate, InGateInputFaultUpdatesSpectrum) {
  const auto [n, dist] = GetParam();
  auto x = random_vector(n, dist, 21 + n);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kInputAfterChecksum, 0,
                                        n / 3 + 5, {3.0, -2.0}));
  Options opts = Options::offline_opt(true);
  opts.max_correctable_errors = 1;
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_near_plain_fft(pristine, out);
  expect_repaired(x, pristine);
  expect_not_reexecuted(x, out);
  EXPECT_EQ(stats.full_restarts, 0u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.verifications, 2u);
}

std::string update_case_name(
    const ::testing::TestParamInfo<UpdateCase>& pi) {
  return update_case_label(pi.param);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndInputs, OfflineAbftUpdate,
    ::testing::Values(UpdateCase{4096, InputDistribution::kUniform},
                      UpdateCase{4096, InputDistribution::kNormal},
                      UpdateCase{1000, InputDistribution::kUniform},
                      UpdateCase{1000, InputDistribution::kNormal},
                      UpdateCase{1 << 16, InputDistribution::kUniform},
                      UpdateCase{1 << 16, InputDistribution::kNormal}),
    update_case_name);

TEST(OfflineAbft, TwoFarApartInputErrorsUpdateSpectrum) {
  const std::size_t n = 4096;
  auto x = random_vector(n, InputDistribution::kUniform, 23);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kInputAfterChecksum, 0, 300,
                                        {4.0, 1.0}));
  inj.schedule(FaultSpec::computational(Phase::kInputAfterChecksum, 0, 3500,
                                        {-2.0, 5.0}));
  Options opts = Options::offline_opt(true);
  opts.max_correctable_errors = 2;
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_near_plain_fft(pristine, out);
  expect_repaired(x, pristine);
  expect_not_reexecuted(x, out);
  EXPECT_EQ(stats.full_restarts, 0u);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.multi_errors_corrected, 2u);
  EXPECT_EQ(stats.verifications, 2u);
}

TEST(OfflineAbft, ExponentBitFlipOutsideUpdateGateReexecutes) {
  // Bit 56 is exponent bit 4: it scales an element in [2, 4) by 2^16, far
  // past ||x||_2, so the repaired input is transformed again.
  const std::size_t n = 4096;
  auto x = random_vector(n, InputDistribution::kNormal, 25);
  const auto pristine = x;
  const auto hit = std::find_if(x.begin(), x.end(), [](cplx v) {
    return std::abs(v.real()) >= 2.0 && std::abs(v.real()) < 4.0;
  });
  ASSERT_NE(hit, x.end());
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kInputAfterChecksum, 0,
                                   static_cast<std::size_t>(hit - x.begin()),
                                   56, false));
  Options opts = Options::offline_opt(true);
  opts.max_correctable_errors = 1;
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_near_plain_fft(pristine, out);
  expect_repaired(x, pristine);
  EXPECT_EQ(out, fft::fft(x));  // re-executed over the repaired input
  EXPECT_EQ(inj.fired_count(), 1u);
  EXPECT_EQ(stats.full_restarts, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.verifications, 2u);
}

TEST(OfflineAbft, TopExponentBitFlipIsRebuiltAsAnErasure) {
  // Bit 62 of a component in (-1, 1) scales it by 2^1024 (~1e308): the
  // weighted sums overflow, so the element cannot be located from the
  // moments. In a component in [1, 2) it sets every exponent bit and the
  // element turns NaN, which poisons every sum. Either way it is rebuilt
  // from the plain checksum of the others instead, from the dual pair
  // (t = 1) and the four moments (t = 2) alike, and the transform
  // re-executed over the repaired input.
  for (int t : {1, 2}) {
    for (bool nan : {false, true}) {
      for (std::size_t n : {std::size_t{512}, std::size_t{4096}}) {
        for (bool imag_part : {false, true}) {
          auto x = random_vector(n, InputDistribution::kUniform, 29);
          if (nan) {
            for (cplx& v : x) v = {1.5 + 0.5 * v.real(), 1.5 + 0.5 * v.imag()};
          }
          const auto pristine = x;
          Injector inj;
          inj.schedule(FaultSpec::bit_flip(Phase::kInputAfterChecksum, 0, 100,
                                           62, imag_part));
          Options opts = Options::offline_opt(true);
          opts.max_correctable_errors = t;
          opts.injector = &inj;
          std::vector<cplx> out(n);
          Stats stats;
          abft::offline_transform(x.data(), out.data(), n, opts, stats);
          SCOPED_TRACE("t=" + std::to_string(t) + (nan ? " nan" : " huge") +
                       " n=" + std::to_string(n) +
                       (imag_part ? " imag" : " real"));
          expect_near_plain_fft(pristine, out);
          expect_repaired(x, pristine);
          EXPECT_EQ(inj.fired_count(), 1u);
          EXPECT_EQ(stats.mem_errors_detected, 1u);
          EXPECT_EQ(stats.mem_errors_corrected, 1u);
          EXPECT_EQ(stats.multi_errors_corrected, 0u);
          EXPECT_EQ(stats.full_restarts, 1u);
        }
      }
    }
  }
}

TEST(OfflineAbft, CloseInputPairAtT1IsRefusedOrRightNeverSilent) {
  // Two input elements 17 apart set after the checksums: outside the t = 1
  // model, so the transform must throw or still return the right spectrum.
  // The dual decoder the one decoder replaced "corrected" such a pair at a
  // third element in 5 of these 8 cases, and the combined checksums then
  // passed the wrong spectrum's check by construction. The reference DFT
  // (O(n^2)) is only taken for a run that returns.
  for (std::size_t n : {std::size_t{4096}, std::size_t{16384},
                        std::size_t{65536}, std::size_t{100000}}) {
    for (auto dist : {InputDistribution::kUniform, InputDistribution::kNormal}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (dist == InputDistribution::kNormal ? " normal"
                                                       : " uniform"));
      auto x = random_vector(n, dist, 7 + n);
      const auto pristine = x;
      Injector inj;
      inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, n / 6,
                                         {40.0, 9.0}));
      inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                         n / 6 + 17, {-12.0, 5.0}));
      Options opts = Options::offline_opt(true);
      opts.max_correctable_errors = 1;
      opts.injector = &inj;
      std::vector<cplx> out(n);
      Stats stats;
      try {
        abft::offline_transform(x.data(), out.data(), n, opts, stats);
      } catch (const UncorrectableError&) {
        EXPECT_EQ(stats.mem_errors_corrected, 0u);
        continue;
      }
      const auto want = dft::reference_dft(pristine);
      EXPECT_LE(inf_diff(out.data(), want.data(), n),
                1e-9 * inf_norm(want.data(), n));
    }
  }
}

TEST(OfflineAbft, FailedUpdateRecheckFallsBackToReexecution) {
  // The output fault survives the input update, so the re-check fails and
  // the transform runs again.
  const std::size_t n = 4096;
  auto x = random_vector(n, InputDistribution::kUniform, 27);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kInputAfterChecksum, 0, 77,
                                        {2.0, 2.0}));
  inj.schedule(FaultSpec::computational(Phase::kWholeFftOutput, 0, 1900,
                                        {5.0, -3.0}));
  Options opts = Options::offline_opt(true);
  opts.max_correctable_errors = 1;
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::offline_transform(x.data(), out.data(), n, opts, stats);
  expect_near_plain_fft(pristine, out);
  expect_repaired(x, pristine);
  EXPECT_EQ(out, fft::fft(x));  // re-executed over the repaired input
  EXPECT_EQ(inj.fired_count(), 2u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.full_restarts, 1u);
  EXPECT_EQ(stats.verifications, 3u);
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
