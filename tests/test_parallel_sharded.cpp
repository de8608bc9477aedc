// Engine-sharded parallel FFT: async API, plan caching, fault campaigns
// (computation, memory and link faults in every transpose) and the modeled
// overlap charge.
//
// Every campaign asserts exact deterministic counter values, so running
// this suite under FTFFT_SIMD=scalar / avx2 / neon (CI does) proves the
// detection/correction outcomes are identical across backends.
#include "parallel/parallel_fft.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "checksum/weights.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"
#include "parallel/parallel_plan.hpp"

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

TEST(ShardedFuture, AsyncSubmitCompletesWithReport) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 71);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.max_correctable_errors = 1;  // pin the 2-value message trailer
  auto fut = parallel::submit_parallel(p, x, opts);
  ASSERT_TRUE(fut.valid());
  fut.wait();
  EXPECT_TRUE(fut.ready());
  ParallelReport report;
  const auto got = fut.get(&report);
  EXPECT_FALSE(fut.valid()) << "get() is one-shot";
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  // Three phases ran and were timed; comm/compute split is per phase.
  for (int ph = 0; ph < 3; ++ph) {
    EXPECT_GT(report.phases[ph].wall_seconds, 0.0) << "phase " << ph;
    EXPECT_GT(report.phases[ph].modeled_comm, 0.0) << "phase " << ph;
  }
  const std::size_t bsz = n / (p * p);
  // Three transposes of p - 1 messages: block, dual pair, block energy.
  EXPECT_EQ(report.bytes_per_rank,
            3 * (p - 1) * ((bsz + 2) * sizeof(cplx) + sizeof(double)));
  EXPECT_THROW(parallel::ParallelFuture{}.wait(), std::invalid_argument);
}

TEST(ShardedFuture, RejectsBadGeometrySynchronously) {
  const auto x = random_vector(96, InputDistribution::kUniform, 72);
  EXPECT_THROW(parallel::submit_parallel(3, x, ParallelOptions::fftw()),
               std::invalid_argument);
  EXPECT_THROW(parallel::submit_parallel(8, x, ParallelOptions::fftw()),
               std::invalid_argument);
}

TEST(ShardedCampaign, OutcomesMatchReferencePathCounters) {
  // An armed campaign (FFT1 computational fault, in-flight block
  // corruption, final-output memory fault) delivers the exact spectrum
  // with the counters the retired thread-per-rank executor reported for
  // the same campaign: one detection and one correction per fault.
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 73);
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 1) {
      inj.schedule(fault::FaultSpec::computational(
          fault::Phase::kRankFft1Output, 3, 2, {7.0, -2.0}));
    }
    if (rank == 0) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kCommBlock, 2,
                                                   9, {11.0, 3.0}));
    }
    if (rank == 2) {
      inj.schedule(fault::FaultSpec::memory_set(fault::Phase::kFinalOutput, 0,
                                                100, {42.0, -42.0}));
    }
  };
  ParallelReport sh;
  const auto got = parallel::submit_parallel(
                       p, x, ParallelOptions::opt_ft_fftw(), arm)
                       .get(&sh);
  expect_matches_sequential(x, got);
  EXPECT_EQ(sh.stats.comp_errors_detected, 1u);
  EXPECT_EQ(sh.stats.sub_fft_retries, 1u);
  EXPECT_EQ(sh.stats.mem_errors_detected, 1u);
  EXPECT_EQ(sh.stats.mem_errors_corrected, 1u);
  EXPECT_EQ(sh.comm_stats.comm_errors_detected, 1u);
  EXPECT_EQ(sh.comm_stats.comm_errors_corrected, 1u);
  EXPECT_EQ(sh.comm_stats.messages_received, 3 * p * (p - 1));
}

TEST(ShardedCampaign, Fft2LayerFaultsMatchReferencePath) {
  // FFT2-layer faults (a layer-1 and a layer-3 sub-FFT of the k*r*k
  // scheme): the struck units are retried, with the counters the retired
  // thread-per-rank executor reported for the same campaign.
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kNormal, 74);
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 2) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kMFftOutput,
                                                   5, 1, {4.0, 4.0}));
    }
    if (rank == 3) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kKFftOutput,
                                                   7, 2, {-3.0, 1.0}));
    }
  };
  ParallelReport sh;
  const auto got =
      parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw(), arm)
          .get(&sh);
  expect_matches_sequential(x, got);
  EXPECT_EQ(sh.stats.comp_errors_detected, 2u);
  EXPECT_EQ(sh.stats.sub_fft_retries, 2u);
  EXPECT_EQ(sh.stats.mem_errors_detected, 0u);
  EXPECT_EQ(sh.stats.mem_errors_corrected, 0u);
  EXPECT_EQ(sh.comm_stats.comm_errors_detected, 0u);
}

TEST(ShardedCampaign, TwoElementBurstInTransposeThreeCorrectedAtT2) {
  // A two-element burst in one block of transpose 3 (rank 2's message from
  // sender 1, unit 2p + 1): under a two-error budget the 2t syndrome moments
  // of the message decode both elements, so the spectrum is exact with one
  // block repaired and two elements corrected by the multi-error decoder.
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kNormal, 78);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.max_correctable_errors = 2;
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank != 2) return;
    const std::size_t unit = 2 * p + 1;
    inj.schedule(fault::FaultSpec::computational(fault::Phase::kCommBlock,
                                                 unit, 5, {8.0, -3.0}));
    inj.schedule(fault::FaultSpec::computational(fault::Phase::kCommBlock,
                                                 unit, 200, {-2.0, 6.0}));
  };
  ParallelReport report;
  const auto got = parallel::submit_parallel(p, x, opts, arm).get(&report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 1u);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);
  EXPECT_EQ(report.comm_stats.comm_multi_corrected, 2u);
  EXPECT_EQ(report.stats.mem_errors_detected, 0u);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
}

TEST(ShardedCampaign, OverlapChargesMaxNotSumPerPhase) {
  // A 1 s message latency makes modeled comm dominate every rank's compute
  // in every phase, so Algorithm 3's charge max(compute, comm) per phase is
  // exactly the comm, and the blocking charge is compute + comm. Only
  // modeled numbers are compared, so CPU-time noise cannot flip the test.
  const std::size_t p = 4, n = 1024;
  const auto x = random_vector(n, InputDistribution::kUniform, 79);
  for (ParallelOptions opts :
       {ParallelOptions::ft_fftw(), ParallelOptions::opt_ft_fftw()}) {
    opts.net.latency_s = 1.0;
    opts.max_correctable_errors = 1;  // pin the 2-value message trailer
    ParallelReport report;
    const auto got = parallel::submit_parallel(p, x, opts).get(&report);
    expect_matches_sequential(x, got);
    // Each phase charges every rank p - 1 messages of bsz + 2 values and
    // the block energy.
    const std::size_t bsz = n / (p * p);
    const double phase_comm =
        static_cast<double>(p - 1) *
        opts.net.cost((bsz + 2) * sizeof(cplx) + sizeof(double));
    for (int ph = 0; ph < 3; ++ph) {
      EXPECT_DOUBLE_EQ(report.phases[ph].modeled_comm, phase_comm);
      EXPECT_LT(report.phases[ph].max_cpu_seconds, phase_comm);
    }
    EXPECT_DOUBLE_EQ(report.max_comm, 3.0 * phase_comm);
    EXPECT_GT(report.max_compute, 0.0);
    if (opts.overlap) {
      EXPECT_EQ(report.makespan, report.max_comm);
    } else {
      const double sum = report.max_comm + report.max_compute;
      EXPECT_NEAR(report.makespan, sum, 1e-12 * sum);
    }
  }
}

// Row `name` of plan_cache_stats(). Its `misses` is the cache's build
// count: every construction goes through the cache, and every miss runs
// the builder once.
PlanCacheStats cache_row(std::string_view name) {
  for (const PlanCacheStats& s : plan_cache_stats()) {
    if (name == s.name) return s;
  }
  ADD_FAILURE() << "plan_cache_stats has no row " << name;
  return {};
}

TEST(ShardedPlan, WarmedSubmitDoesNoPlanOrRaWork) {
  // Unique geometry so no other test has warmed this entry.
  const std::size_t p = 8, n = 8 * 2048;
  parallel::warm_plans(p, n, /*protect=*/true);
  const auto builds_before = cache_row("parallel-plan").misses;
  const auto ra_before = checksum::ra_generations();
  auto x = random_vector(n, InputDistribution::kUniform, 78);
  auto fut = parallel::submit_parallel(p, std::move(x),
                                       ParallelOptions::opt_ft_fftw());
  (void)fut.get();
  EXPECT_EQ(cache_row("parallel-plan").misses, builds_before)
      << "submit after warm_plans must not build plans";
  EXPECT_EQ(checksum::ra_generations(), ra_before)
      << "submit after warm_plans must not regenerate checksum weights";
}

TEST(ShardedPlan, RegisteredInPlanCacheStats) {
  parallel::warm_plans(4, 1024, true);
  EXPECT_GE(cache_row("parallel-plan").size, 1u);
}

}  // namespace
}  // namespace ftfft
