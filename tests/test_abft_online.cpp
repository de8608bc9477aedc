#include "abft/online.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "abft/options.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "dft/reference_dft.hpp"
#include "fault/injector.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

void expect_matches_reference(const std::vector<cplx>& x,
                              const std::vector<cplx>& got) {
  const auto want = dft::reference_dft(x);
  const double tol = 1e-10 * static_cast<double>(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

// Presets 0..3: comp-naive, comp-opt, mem-naive, mem-opt.
Options preset(int id) {
  switch (id) {
    case 0:
      return Options::online_naive(false);
    case 1:
      return Options::online_opt(false);
    case 2:
      return Options::online_naive(true);
    default:
      return Options::online_opt(true);
  }
}

class OnlinePreset : public ::testing::TestWithParam<int> {};

TEST_P(OnlinePreset, FaultFreeCorrectAcrossSizes) {
  for (std::size_t n : {16, 32, 64, 100, 250, 256, 1024, 2048}) {
    auto x = random_vector(n, InputDistribution::kUniform, 300 + n);
    const auto pristine = x;
    std::vector<cplx> out(n);
    Stats stats;
    abft::online_transform(x.data(), out.data(), n, preset(GetParam()),
                           stats);
    expect_matches_reference(pristine, out);
    EXPECT_EQ(stats.sub_fft_retries, 0u) << n;
    EXPECT_EQ(stats.comp_errors_detected, 0u) << n;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << n;
    EXPECT_GT(stats.verifications, 0u) << n;
  }
}

TEST_P(OnlinePreset, ComputationalFaultInFirstLayerCorrected) {
  const std::size_t n = 1024;  // m = 32, k = 32
  auto x = random_vector(n, InputDistribution::kUniform, 31);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 7, 13, {2.5, 1.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
  EXPECT_EQ(inj.fired_count(), 1u);
}

TEST_P(OnlinePreset, ComputationalFaultInSecondLayerCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 33);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kKFftOutput, 21, 5, {-4.0, 0.5}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
}

TEST_P(OnlinePreset, TwiddleDmrFaultVotedOut) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 35);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 3, 9, {1.5, -2.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);  // DMR fixed it before the CCV
}

std::string online_preset_name(const ::testing::TestParamInfo<int>& pi) {
  static const char* const kNames[] = {"comp_naive", "comp_opt", "mem_naive",
                                       "mem_opt"};
  return kNames[pi.param];
}

INSTANTIATE_TEST_SUITE_P(AllPresets, OnlinePreset, ::testing::Range(0, 4),
                         online_preset_name);

class OnlineMemoryPreset : public ::testing::TestWithParam<int> {};

TEST_P(OnlineMemoryPreset, InputMemoryFaultE1Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 41);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 517,
                                     {30.0, -12.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST_P(OnlineMemoryPreset, IntermediateMemoryFaultE2Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 43);
  Injector inj;
  inj.schedule(
      FaultSpec::bit_flip(Phase::kIntermediate, 0, 700, 58, false));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST_P(OnlineMemoryPreset, FinalOutputMemoryFaultE3Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 45);
  Injector inj;
  inj.schedule(
      FaultSpec::memory_set(Phase::kFinalOutput, 0, 99, {77.0, 0.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
}

TEST_P(OnlineMemoryPreset, CombinedFaultLoad1m2c) {
  // The Table 1 scenario: one memory fault plus two computational faults in
  // distinct protection units, all corrected online.
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 47);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 100,
                                     {15.0, 15.0}));
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 3, 8, {5.0, 0.0}));
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 17, 2, {0.0, 6.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(inj.fired_count(), 3u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 2u);
}

INSTANTIATE_TEST_SUITE_P(NaiveAndOpt, OnlineMemoryPreset,
                         ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           return pi.param == 2 ? "naive" : "opt";
                         });

TEST(OnlineAbft, CompOnlySchemeSilentlyMissesInputMemoryFault) {
  // In the computational-only online scheme the per-sub-FFT checksum is
  // generated from the input at gather time; a memory fault that corrupts
  // the input beforehand is faithfully transformed and never detected.
  // This pins the paper's coverage boundary (section 3.1 vs 3.2).
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 51);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 40,
                                     {60.0, 0.0}));
  Options opts = Options::online_opt(false);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  EXPECT_EQ(stats.mem_errors_detected, 0u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  // The output is the (consistent) transform of the corrupted input.
  const auto want = dft::reference_dft(pristine);
  EXPECT_GT(inf_diff(out.data(), want.data(), n), 1.0);
}

TEST(OnlineAbft, BackupInInputDestroysInputButStaysCorrect) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 53);
  const auto pristine = x;
  Options opts = Options::online_opt(true);
  opts.backup_in_input = true;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  // The input now holds the parked intermediate, not the original data.
  bool modified = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] != pristine[j]) {
      modified = true;
      break;
    }
  }
  EXPECT_TRUE(modified);
}

TEST(OnlineAbft, PreservesInputByDefault) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 55);
  const auto pristine = x;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, Options::online_opt(true),
                         stats);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(x[j], pristine[j]);
}

TEST(OnlineAbft, ManyComputationalFaultsAcrossUnits) {
  // One fault per protection unit is within the model no matter how many
  // units are hit.
  const std::size_t n = 4096;  // m = k = 64
  auto x = random_vector(n, InputDistribution::kUniform, 57);
  Injector inj;
  for (std::size_t u = 0; u < 64; u += 8) {
    inj.schedule(FaultSpec::computational(Phase::kMFftOutput, u, u % 13,
                                          {1.0 + static_cast<double>(u), 0.5}));
    inj.schedule(FaultSpec::computational(Phase::kKFftOutput, u + 1, u % 7,
                                          {-2.0, static_cast<double>(u)}));
  }
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 16u);
  EXPECT_EQ(stats.sub_fft_retries, 16u);
}

TEST(OnlineAbft, StatsReportThresholds) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 59);
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, Options::online_opt(true),
                         stats);
  EXPECT_GT(stats.eta_m, 0.0);
  EXPECT_GT(stats.eta_k, 0.0);
  EXPECT_GT(stats.eta_mem, 0.0);
}

TEST(OnlineAbft, RejectsTinySizes) {
  std::vector<cplx> x(2), out(2);
  Stats stats;
  EXPECT_THROW(abft::online_transform(x.data(), out.data(), 2,
                                      Options::online_opt(false), stats),
               std::invalid_argument);
}

// ---- Memory faults against the column-major, stage-written backup at
// n = 2^16 (m = k = 256): the column scale comes from the verified layer-1
// outputs and the postponed recovery recomputes from the backup.

struct BackupLayout {
  const char* name;
  bool backup_in_input;
};

// Test listings print the layout's name, not the bytes of the struct (whose
// pointer would move with every unrelated string literal).
void PrintTo(const BackupLayout& layout, std::ostream* os) {
  *os << layout.name;
}

class OnlineBackup : public ::testing::TestWithParam<BackupLayout> {
 protected:
  static constexpr std::size_t kN = std::size_t{1} << 16;

  Options options() const {
    Options o = Options::online_opt(true);
    o.backup_in_input = GetParam().backup_in_input;
    return o;
  }

  // Runs the transform on a fresh copy of the input; returns the output.
  std::vector<cplx> run(const std::vector<cplx>& input, Injector* inj,
                        Stats& stats) const {
    auto x = input;
    Options o = options();
    o.injector = inj;
    std::vector<cplx> out(kN);
    abft::online_transform(x.data(), out.data(), kN, o, stats);
    return out;
  }
};

TEST_P(OnlineBackup, IntermediateExponentFlipsLeaveOutputAndScaleUnchanged) {
  const auto x = random_vector(kN, InputDistribution::kUniform, 63);
  Stats clean_stats;
  const auto clean = run(x, nullptr, clean_stats);
  const double peak = inf_norm(clean.data(), kN);
  for (unsigned bit : {52u, 62u}) {
    Injector inj;
    inj.schedule(
        FaultSpec::bit_flip(Phase::kIntermediate, 0, 40000, bit, false));
    Stats stats;
    const auto out = run(x, &inj, stats);
    EXPECT_EQ(inj.fired_count(), 1u) << "bit " << bit;
    EXPECT_EQ(stats.mem_errors_detected, 1u) << "bit " << bit;
    EXPECT_EQ(stats.mem_errors_corrected, 1u) << "bit " << bit;
    // The checksum repair restores the element to within the round-off of
    // the column sums, not bit for bit.
    EXPECT_LE(inf_diff(out.data(), clean.data(), kN), 1e-12 * peak)
        << "bit " << bit;
    // The corrupted column must not move any threshold.
    EXPECT_EQ(stats.eta_k, clean_stats.eta_k) << "bit " << bit;
    EXPECT_EQ(stats.eta_mem, clean_stats.eta_mem) << "bit " << bit;
  }
}

TEST_P(OnlineBackup, FinalOutputFaultRecomputesFromBackup) {
  const auto x = random_vector(kN, InputDistribution::kNormal, 65);
  Stats clean_stats;
  const auto clean = run(x, nullptr, clean_stats);
  Injector inj;
  inj.schedule(
      FaultSpec::memory_set(Phase::kFinalOutput, 0, 12345, {50.0, -20.0}));
  Stats stats;
  const auto out = run(x, &inj, stats);
  EXPECT_EQ(inj.fired_count(), 1u);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);  // the one column recompute
  EXPECT_EQ(std::memcmp(out.data(), clean.data(), kN * sizeof(cplx)), 0);
}

TEST_P(OnlineBackup, RecomputeUsesTheRepairedIntermediate) {
  // An intermediate fault repaired by the column check, then an output
  // fault in the same column: the recompute must start from the repaired
  // column, not from a copy taken before the repair.
  const auto x = random_vector(kN, InputDistribution::kUniform, 67);
  Stats clean_stats;
  const auto clean = run(x, nullptr, clean_stats);
  const std::size_t m = 256, col = 40000 % m;
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kIntermediate, 0, 40000, 52, true));
  inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, col + m * 10,
                                     {50.0, -20.0}));
  Stats stats;
  const auto out = run(x, &inj, stats);
  EXPECT_EQ(inj.fired_count(), 2u);
  EXPECT_EQ(stats.mem_errors_detected, 2u);
  EXPECT_EQ(stats.mem_errors_corrected, 2u);
  EXPECT_LE(inf_diff(out.data(), clean.data(), kN),
            1e-12 * inf_norm(clean.data(), kN));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, OnlineBackup,
    ::testing::Values(BackupLayout{"scratch", false},
                      BackupLayout{"in_input", true}),
    [](const ::testing::TestParamInfo<BackupLayout>& pi) {
      return std::string(pi.param.name);
    });

}  // namespace
}  // namespace ftfft
