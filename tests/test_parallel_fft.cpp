// The distributed six-step FFT (submit_parallel): every Fig. 8 variant
// against the sequential engine, determinism across engine worker counts,
// one fault class per test (computation, communication in every transpose,
// memory) and the modeled network cost.
#include "parallel/parallel_fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"

namespace ftfft {
namespace {

using parallel::ParallelOptions;
using parallel::ParallelReport;

void expect_matches_sequential(const std::vector<cplx>& x,
                               const std::vector<cplx>& got) {
  const auto want = fft::fft(x);
  const double tol = 1e-9 * static_cast<double>(x.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

class ParallelVariant : public ::testing::TestWithParam<int> {
 protected:
  static ParallelOptions variant(int id) {
    switch (id) {
      case 0:
        return ParallelOptions::fftw();
      case 1:
        return ParallelOptions::ft_fftw();
      case 2:
        return ParallelOptions::opt_fftw();
      default:
        return ParallelOptions::opt_ft_fftw();
    }
  }
};

TEST_P(ParallelVariant, MatchesSequentialAcrossShapes) {
  for (const auto& [p, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 64}, {4, 256}, {4, 1024}, {8, 1024}, {8, 4096}, {16, 4096}}) {
    auto x = random_vector(n, InputDistribution::kUniform, 900 + n + p);
    ParallelReport report;
    const auto got =
        parallel::submit_parallel(p, x, variant(GetParam())).get(&report);
    expect_matches_sequential(x, got);
    EXPECT_GT(report.makespan, 0.0) << "p=" << p << " n=" << n;
    EXPECT_EQ(report.stats.comp_errors_detected, 0u);
    EXPECT_EQ(report.stats.mem_errors_detected, 0u);
    EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  }
}

TEST_P(ParallelVariant, ShardedMatchesReferenceBitExact) {
  // The reference is the one-worker engine run: every rank writes only its
  // own slice and counters, so the spectrum and the report's counters must
  // not depend on how many workers the engine shards the ranks across.
  const ParallelOptions opts = variant(GetParam());
  for (const auto& [p, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 1024}, {8, 4096}}) {
    auto x = random_vector(n, InputDistribution::kUniform, 500 + n + p);
    engine::BatchEngine one(1);
    ParallelReport want_report;
    const auto want =
        parallel::submit_parallel(p, x, opts, {}, &one).get(&want_report);
    expect_matches_sequential(x, want);
    for (std::size_t threads : {1u, 2u, 4u}) {
      engine::BatchEngine eng(threads);
      ParallelReport report;
      const auto got =
          parallel::submit_parallel(p, x, opts, {}, &eng).get(&report);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
          << "p=" << p << " n=" << n << " threads=" << threads;
      EXPECT_EQ(report.stats.verifications, want_report.stats.verifications);
      EXPECT_EQ(report.stats.dmr_mismatches, want_report.stats.dmr_mismatches);
      EXPECT_EQ(report.comm_stats.messages_received,
                want_report.comm_stats.messages_received);
      EXPECT_EQ(report.bytes_per_rank, want_report.bytes_per_rank);
    }
  }
}

std::string variant_name(const ::testing::TestParamInfo<int>& pi) {
  static const char* const kNames[] = {"fftw", "ft_fftw", "opt_fftw",
                                       "opt_ft_fftw"};
  return kNames[pi.param];
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ParallelVariant, ::testing::Range(0, 4),
                         variant_name);

TEST(ParallelFft, OddPowerLocalSizesWork) {
  // n_loc = 512 = 2^9 exercises the r = 2 middle layer inside FFT2.
  const std::size_t p = 4, n = 2048;
  auto x = random_vector(n, InputDistribution::kNormal, 31);
  const auto got =
      parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw()).get();
  expect_matches_sequential(x, got);
}

TEST(ParallelFft, Fft1ComputationalFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 33);
  ParallelReport report;
  const auto got = parallel::submit_parallel(
      p, x, ParallelOptions::opt_ft_fftw(),
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 1) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 3, 2, {7.0, -2.0}));
        }
      }).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 1u);
  EXPECT_EQ(report.stats.sub_fft_retries, 1u);
}

TEST(ParallelFft, Fft2FaultsCorrectedInsideInplaceScheme) {
  const std::size_t p = 4, n = 4096;  // n_loc = 1024
  auto x = random_vector(n, InputDistribution::kUniform, 35);
  ParallelReport report;
  const auto got = parallel::submit_parallel(
      p, x, ParallelOptions::opt_ft_fftw(),
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 2) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kMFftOutput, 5, 1, {4.0, 4.0}));
        }
        if (rank == 3) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kKFftOutput, 7, 2, {-3.0, 1.0}));
        }
      }).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 2u);
}

TEST(ParallelFft, CommunicationFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 37);
  ParallelReport report;
  const auto got = parallel::submit_parallel(
      p, x, ParallelOptions::opt_ft_fftw(),
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kCommBlock, 2, 9, {11.0, 3.0}));
        }
      }).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);
}

TEST(ParallelFft, CommFaultCorrectedWhenReceiverSliceIsQuiet) {
  // Input only in the first quarter: ranks 8 and 10 own all-zero input
  // slices but receive nonzero blocks from ranks 1 and 3 in transpose 1.
  // The message threshold must follow the block's own (sender-measured)
  // energy, not the receiver's slice, or the repair residue of a large
  // fault fails a threshold sized for zeros.
  const std::size_t p = 16, n = std::size_t{1} << 16;
  std::vector<cplx> x(n, cplx{0.0, 0.0});
  Rng rng(51);
  for (std::size_t j = 0; j < n / 4; ++j) {
    x[j] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  for (const auto& [rank, unit] :
       std::vector<std::pair<std::size_t, std::size_t>>{{8, 1}, {10, 3}}) {
    ParallelReport report;
    const auto got =
        parallel::submit_parallel(
            p, x, ParallelOptions::opt_ft_fftw(),
            [rank = rank, unit = unit](std::size_t r, fault::Injector& inj) {
              if (r == rank) {
                inj.schedule(fault::FaultSpec::computational(
                    fault::Phase::kCommBlock, unit, 7, {50.0, -50.0}));
              }
            })
            .get(&report);
    EXPECT_EQ(report.comm_stats.comm_errors_detected, 1u) << "rank " << rank;
    EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u) << "rank " << rank;
    const auto want = fft::fft(x);
    double peak = 0.0, err = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      peak = std::max(peak, std::abs(want[j]));
      err = std::max(err, std::abs(got[j] - want[j]));
    }
    EXPECT_LE(err, 1e-9 * peak) << "rank " << rank;
  }
}

TEST(ParallelFft, FinalOutputMemoryFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 39);
  ParallelReport report;
  const auto got = parallel::submit_parallel(
      p, x, ParallelOptions::opt_ft_fftw(),
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 1) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kFinalOutput, 0, 100, {42.0, -42.0}));
        }
      }).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.mem_errors_corrected, 1u);
}

TEST(ParallelFft, TheTable2Scenario2m2c) {
  // Two memory faults + two computational faults on distinct units/ranks:
  // all corrected, result exact.
  const std::size_t p = 8, n = 4096;
  auto x = random_vector(n, InputDistribution::kUniform, 41);
  ParallelReport report;
  const auto got = parallel::submit_parallel(
      p, x, ParallelOptions::opt_ft_fftw(),
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 1, 1, {5.0, 5.0}));
        }
        if (rank == 3) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kKFftOutput, 2, 3, {-6.0, 2.0}));
        }
        if (rank == 5) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kCommBlock, 1, 7, {30.0, 0.0}));
        }
        if (rank == 6) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kFinalOutput, 0, 11, {-19.0, 8.0}));
        }
      }).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_GE(report.stats.comp_errors_detected +
                report.stats.mem_errors_corrected +
                report.comm_stats.comm_errors_corrected,
            4u);
}

TEST(ParallelFft, ReportsCommunicationBytes) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 45);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  // Pin the budget: the dual-checksum trailer is 2 complex values at t = 1
  // and 2t syndrome moments above (the wire format under test here).
  opts.max_correctable_errors = 1;
  ParallelReport report;
  parallel::submit_parallel(p, x, opts).get(&report);
  // Three transposes, each sending (p-1) blocks of (bsz + 2) complex plus
  // the sender's block energy (one double).
  const std::size_t bsz = n / (p * p);
  EXPECT_EQ(report.bytes_per_rank,
            3 * (p - 1) * ((bsz + 2) * sizeof(cplx) + sizeof(double)));
}

TEST(ParallelFft, ChargesTwoTMomentTrailerUnderMultiErrorBudget) {
  // p = 4, N = 1024: each rank sends 3 transposes x 3 blocks of 64 complex
  // values plus the trailer, 2 values (the dual pair) at t = 1 and 2t = 4
  // syndrome moments at t = 2, plus the sender's block energy (8 B).
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 47);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  ParallelReport report;
  opts.max_correctable_errors = 1;
  parallel::submit_parallel(p, x, opts).get(&report);
  EXPECT_EQ(report.bytes_per_rank, 9576u);
  opts.max_correctable_errors = 2;
  parallel::submit_parallel(p, x, opts).get(&report);
  EXPECT_EQ(report.bytes_per_rank, 9864u);
}

/// Arms, on every rank, one mantissa flip (bit 44 of the real part of
/// element 0, ~2^-8 relative) in the block of its `nth` received message
/// (1-based, counting the p - 1 non-resident blocks of each transpose in
/// sender order).
std::function<void(std::size_t, fault::Injector&)> flip_nth_message(
    std::size_t p, std::size_t nth) {
  return [p, nth](std::size_t rank, fault::Injector& inj) {
    const std::size_t s = (nth - 1) / (p - 1);
    std::size_t q = (nth - 1) % (p - 1);
    if (q >= rank) ++q;  // skip the resident block
    inj.schedule(fault::FaultSpec::bit_flip(fault::Phase::kCommBlock,
                                            s * p + q, 0, 44, false));
  };
}

TEST(ParallelFft, LinkCorruptionCorrectedIdenticallyOnBothPaths) {
  // Link corruption in each rank's 5th received block (transpose 2, unit
  // p + q): all are repaired in place. The faults are addressed per rank and
  // message, so a one-worker and a four-worker engine see the same faults
  // and return the same bits.
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 49);
  const ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  const auto arm = flip_nth_message(p, 5);
  engine::BatchEngine one(1), four(4);
  ParallelReport r1, r4;
  const auto got1 = parallel::submit_parallel(p, x, opts, arm, &one).get(&r1);
  const auto got4 =
      parallel::submit_parallel(p, x, opts, arm, &four).get(&r4);
  expect_matches_sequential(x, got1);
  EXPECT_EQ(std::memcmp(got1.data(), got4.data(), n * sizeof(cplx)), 0);
  for (const ParallelReport* r : {&r1, &r4}) {
    EXPECT_EQ(r->comm_stats.comm_errors_detected, p);
    EXPECT_EQ(r->comm_stats.comm_errors_corrected, p);
    EXPECT_EQ(r->comm_stats.messages_received, 3 * p * (p - 1));
  }
}

TEST(ParallelFft, LinkCorruptionSilentlyPoisonsUnprotectedVariant) {
  // The same link fault under an unprotected variant (each rank's 7th
  // message, transpose 3): nothing verifies the message, so the corruption
  // lands in the spectrum — the failure mode the paper's checksummed
  // communication exists to close.
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 51);
  const auto got = parallel::submit_parallel(p, x, ParallelOptions::opt_fftw(),
                                             flip_nth_message(p, 7))
                       .get();
  const auto want = fft::fft(x);
  const double tol = 1e-9 * static_cast<double>(n);
  bool corrupted = false;
  for (std::size_t j = 0; j < n && !corrupted; ++j) {
    corrupted = std::abs(got[j] - want[j]) > tol;
  }
  EXPECT_TRUE(corrupted);
}

TEST(ParallelFft, RejectsBadGeometry) {
  auto x = random_vector(96, InputDistribution::kUniform, 47);
  EXPECT_THROW(parallel::submit_parallel(3, x, ParallelOptions::fftw()),
               std::invalid_argument);  // p divisible by 3
  EXPECT_THROW(parallel::submit_parallel(8, x, ParallelOptions::fftw()),
               std::invalid_argument);  // 96 not divisible by 64
  EXPECT_THROW(parallel::submit_parallel(1, x, ParallelOptions::fftw()),
               std::invalid_argument);  // fewer than 2 ranks
}

TEST(NetworkModel, CostIsAffine) {
  parallel::NetworkModel net{1e-6, 1e9};
  EXPECT_DOUBLE_EQ(net.cost(0), 1e-6);
  EXPECT_DOUBLE_EQ(net.cost(1000000000), 1.0 + 1e-6);
  EXPECT_GT(net.cost(2048), net.cost(1024));
}

}  // namespace
}  // namespace ftfft
