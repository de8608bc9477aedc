#include "abft/inplace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
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
                              const std::vector<cplx>& got) {
  const auto want = dft::reference_dft(x);
  const double tol = 1e-10 * static_cast<double>(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

// Same bound, with the unprotected transform as the oracle: the O(n^2)
// reference DFT is too slow at the batch-boundary sizes.
void expect_matches_unprotected(const std::vector<cplx>& x,
                                const std::vector<cplx>& got) {
  std::vector<cplx> want(x.size());
  fft::Fft(x.size()).execute(x.data(), want.data());
  const double tol = 1e-10 * static_cast<double>(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

bool bitwise_equal(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// Reference digit reversal for the radix vector (k, r, k): the direct
// triple loop of swaps p = d0 + d1*k + d2*r*k <-> q = d2 + d1*k + d0*r*k.
void krk_digit_reverse_reference(cplx* data, std::size_t k, std::size_t r) {
  const std::size_t blk = r * k;
  for (std::size_t d2 = 0; d2 < k; ++d2) {
    for (std::size_t d1 = 0; d1 < r; ++d1) {
      for (std::size_t d0 = 0; d0 < k; ++d0) {
        const std::size_t p = d0 + d1 * k + d2 * blk;
        const std::size_t q = d2 + d1 * k + d0 * blk;
        if (p < q) std::swap(data[p], data[q]);
      }
    }
  }
}

TEST(InplaceShape, SplitsAsExpected) {
  EXPECT_EQ(abft::inplace_shape(64).k, 8u);
  EXPECT_EQ(abft::inplace_shape(64).r, 1u);
  EXPECT_EQ(abft::inplace_shape(32).k, 4u);
  EXPECT_EQ(abft::inplace_shape(32).r, 2u);
  EXPECT_EQ(abft::inplace_shape(1 << 20).k, 1u << 10);
  EXPECT_EQ(abft::inplace_shape(1 << 20).r, 1u);
  EXPECT_EQ(abft::inplace_shape(1 << 21).k, 1u << 10);
  EXPECT_EQ(abft::inplace_shape(1 << 21).r, 2u);
  EXPECT_EQ(abft::inplace_shape(200).k, 10u);
  EXPECT_EQ(abft::inplace_shape(200).r, 2u);
}

TEST(InplaceShape, RejectsDegenerateSizes) {
  EXPECT_THROW((void)abft::inplace_shape(7), std::invalid_argument);    // k == 1
  EXPECT_THROW((void)abft::inplace_shape(10), std::invalid_argument);   // k == 1
  EXPECT_THROW((void)abft::inplace_shape(9), std::invalid_argument);    // 3 | k
  EXPECT_THROW((void)abft::inplace_shape(36), std::invalid_argument);   // 3 | k
}

TEST(DigitReversePermute, IsAnInvolution) {
  for (const auto& [k, r] : {std::pair<std::size_t, std::size_t>{4, 1},
                            {4, 2},
                            {8, 3},
                            {5, 2},
                            {512, 1},
                            {256, 2}}) {
    const std::size_t n = k * k * r;
    auto x = random_vector(n, InputDistribution::kUniform, 600 + n);
    auto once = x;
    abft::krk_digit_reverse_permute(once.data(), k, r);
    auto want = x;
    krk_digit_reverse_reference(want.data(), k, r);
    EXPECT_TRUE(bitwise_equal(once, want)) << "k " << k << " r " << r;
    auto twice = once;
    abft::krk_digit_reverse_permute(twice.data(), k, r);
    EXPECT_TRUE(bitwise_equal(twice, x)) << "k " << k << " r " << r;
    // And it is not the identity for nontrivial shapes.
    EXPECT_FALSE(bitwise_equal(once, x)) << "k " << k << " r " << r;
  }
}

class InplaceMode : public ::testing::TestWithParam<bool> {
 protected:
  Options opts() const {
    return GetParam() ? Options::online_opt(true)
                      : Options::online_opt(false);
  }
};

TEST_P(InplaceMode, FaultFreeMatchesReferenceAcrossSizes) {
  // Mix of even powers (r=1), odd powers (r=2) and non-powers of two.
  for (std::size_t n : {16, 32, 50, 64, 100, 128, 200, 256, 512, 1024, 2048}) {
    auto x = random_vector(n, InputDistribution::kUniform, 700 + n);
    const auto pristine = x;
    Stats stats;
    abft::inplace_online_transform(x.data(), n, opts(), stats);
    expect_matches_reference(pristine, x);
    EXPECT_EQ(stats.comp_errors_detected, 0u) << n;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << n;
  }
}

TEST_P(InplaceMode, Layer1ComputationalFaultCorrected) {
  // 512: k = 16, r = 2. 200: k = 10, r = 2, so every staging transpose
  // ends in a partial tile.
  for (const std::size_t n : {512, 200}) {
    auto x = random_vector(n, InputDistribution::kUniform, 61);
    const auto pristine = x;
    Injector inj;
    inj.schedule(
        FaultSpec::computational(Phase::kMFftOutput, 11, 3, {4.0, 4.0}));
    Options o = opts();
    o.injector = &inj;
    Stats stats;
    abft::inplace_online_transform(x.data(), n, o, stats);
    expect_matches_reference(pristine, x);
    EXPECT_EQ(stats.comp_errors_detected, 1u) << n;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << n;
  }
}

// n = 2^16: k = 256, r = 1, so layer 1 runs blk = 256 units staged in two
// batches of 128. Faults on the first and last unit of each batch must be
// retried from that unit's own staged column, bit-identically to a clean
// run.
TEST_P(InplaceMode, Layer1FaultAtBatchBoundaryRetriedBitwise) {
  const std::size_t n = std::size_t{1} << 16;
  const auto x = random_vector(n, InputDistribution::kNormal, 81);
  auto clean = x;
  Stats clean_stats;
  abft::inplace_online_transform(clean.data(), n, opts(), clean_stats);
  expect_matches_unprotected(x, clean);
  for (const std::size_t unit : {0, 127, 128, 255}) {
    auto y = x;
    Injector inj;
    inj.schedule(
        FaultSpec::computational(Phase::kMFftOutput, unit, 9, {4.0, -3.0}));
    Options o = opts();
    o.injector = &inj;
    Stats stats;
    abft::inplace_online_transform(y.data(), n, o, stats);
    EXPECT_EQ(inj.fired_count(), 1u) << unit;
    EXPECT_EQ(stats.comp_errors_detected, 1u) << unit;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << unit;
    EXPECT_TRUE(bitwise_equal(y, clean)) << "unit " << unit;
  }
}

TEST_P(InplaceMode, Layer3ComputationalFaultCorrected) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kNormal, 63);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 9, 1, {0.0, -5.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
}

TEST_P(InplaceMode, MiddleLayerDmrFaultVotedOut) {
  const std::size_t n = 512;  // r = 2: middle layer active
  auto x = random_vector(n, InputDistribution::kUniform, 65);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kMiddleDmrCopy, 37, 1, {3.0, 3.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
}

TEST_P(InplaceMode, TwiddleDmrFaultVotedOut) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 67);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 5, 12, {-2.0, 1.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
}

INSTANTIATE_TEST_SUITE_P(CompAndMem, InplaceMode, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pi) {
                           return pi.param ? "memory_ft" : "comp_only";
                         });

TEST(InplaceAbft, InputMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 69);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 300,
                                     {25.0, -8.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, InputMemoryFaultInLastColumnOfBatchRepaired) {
  // n = 2^16 stages layer 1 in batches of 128 columns; column 127 is the
  // last one of the first batch. Row 100 of it is element 100*256 + 127.
  const std::size_t n = std::size_t{1} << 16;
  auto x = random_vector(n, InputDistribution::kUniform, 83);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                     100 * 256 + 127, {25.0, -8.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_unprotected(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, IntermediateBlockMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 71);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kIntermediate, 0, 555, 57, true));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, FinalOutputMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 73);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::memory_set(Phase::kFinalOutput, 0, 450, {-33.0, 10.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, NaiveMemoryHierarchyAlsoCorrects) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kUniform, 75);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 77,
                                     {19.0, 19.0}));
  Options o = Options::online_naive(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, MultipleFaultsAcrossLayers) {
  const std::size_t n = 2048;  // k = 32, r = 2
  auto x = random_vector(n, InputDistribution::kUniform, 77);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 1234,
                                     {12.0, 0.0}));
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 40, 7, {3.0, 3.0}));
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 50, 9, {-1.0, 8.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(inj.fired_count(), 3u);
}

}  // namespace
}  // namespace ftfft
