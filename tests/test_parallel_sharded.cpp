// Engine-sharded parallel FFT: async API, plan caching, fault campaigns
// over the modeled network (link corruption, stragglers, rank failure with
// restart recovery), and parity with the thread-per-rank reference path.
//
// Every campaign asserts exact deterministic counter values, so running
// this suite under FTFFT_SIMD=scalar / avx2 / neon (CI does) proves the
// detection/correction outcomes are identical across backends.
#include "parallel/parallel_fft.hpp"

#include <gtest/gtest.h>

#include <cstring>
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
  auto fut = parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw());
  ASSERT_TRUE(fut.valid());
  fut.wait();
  EXPECT_TRUE(fut.ready());
  ParallelReport report;
  const auto got = fut.get(&report);
  EXPECT_FALSE(fut.valid()) << "get() is one-shot";
  expect_matches_sequential(x, got);
  EXPECT_TRUE(report.sharded);
  EXPECT_EQ(report.rank_restarts, 0u);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  // Three phases ran and were timed; comm/compute split is per phase.
  for (int ph = 0; ph < 3; ++ph) {
    EXPECT_GT(report.phases[ph].wall_seconds, 0.0) << "phase " << ph;
    EXPECT_GT(report.phases[ph].modeled_comm, 0.0) << "phase " << ph;
  }
  const std::size_t bsz = n / (p * p);
  EXPECT_EQ(report.bytes_per_rank, 3 * (p - 1) * (bsz + 2) * sizeof(cplx));
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
  // The same armed campaign (FFT1 computational fault, in-flight block
  // corruption, final-output memory fault) must produce the same detection
  // and correction counts on both execution substrates, and both must
  // deliver the exact spectrum.
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
  ParallelReport ref, sh;
  const auto want =
      parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(), &ref, arm);
  const auto got = parallel::parallel_fft_sharded(
      p, x, ParallelOptions::opt_ft_fftw(), &sh, arm);
  expect_matches_sequential(x, want);
  expect_matches_sequential(x, got);
  EXPECT_EQ(sh.stats.comp_errors_detected, ref.stats.comp_errors_detected);
  EXPECT_EQ(sh.stats.sub_fft_retries, ref.stats.sub_fft_retries);
  EXPECT_EQ(sh.stats.mem_errors_corrected, ref.stats.mem_errors_corrected);
  EXPECT_EQ(sh.comm_stats.comm_errors_detected,
            ref.comm_stats.comm_errors_detected);
  EXPECT_EQ(sh.comm_stats.comm_errors_corrected,
            ref.comm_stats.comm_errors_corrected);
  EXPECT_EQ(sh.comm_stats.messages_received, ref.comm_stats.messages_received);
}

TEST(ShardedCampaign, Fft2LayerFaultsMatchReferencePath) {
  // FFT2-layer faults (a layer-1 and a layer-3 sub-FFT of the k*r*k
  // scheme): both substrates retry the struck unit and deliver the same
  // bits with the same counters.
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
  const ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  ParallelReport ref, sh;
  const auto want = parallel::parallel_fft(p, x, opts, &ref, arm);
  const auto got = parallel::parallel_fft_sharded(p, x, opts, &sh, arm);
  expect_matches_sequential(x, got);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0);
  EXPECT_EQ(sh.stats.comp_errors_detected, 2u);
  EXPECT_EQ(sh.stats.comp_errors_detected, ref.stats.comp_errors_detected);
  EXPECT_EQ(sh.stats.sub_fft_retries, ref.stats.sub_fft_retries);
  EXPECT_EQ(sh.stats.mem_errors_corrected, ref.stats.mem_errors_corrected);
}

TEST(ShardedCampaign, RankFailureRecoversWithinRestartBudget) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 75);

  // Without a failover budget the node loss propagates, taxonomy intact.
  ParallelOptions failing = ParallelOptions::opt_ft_fftw();
  failing.net.fail_rank = 1;
  failing.net.fail_phase = 2;
  EXPECT_THROW(parallel::parallel_fft_sharded(p, x, failing), RankFailedError);

  // With one restart allowed, the transform completes exactly and the
  // report shows the absorbed failover; counters equal a clean run's.
  ParallelOptions recovering = failing;
  recovering.max_rank_restarts = 1;
  ParallelReport report;
  const auto got = parallel::parallel_fft_sharded(p, x, recovering, &report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.rank_restarts, 1u);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  // Accumulators were reset on restart: bytes reflect one clean pass.
  const std::size_t bsz = n / (p * p);
  EXPECT_EQ(report.bytes_per_rank, 3 * (p - 1) * (bsz + 2) * sizeof(cplx));
}

TEST(ShardedCampaign, RankFailurePlusTransientFaultStillExact) {
  // A transient FFT1 fault on one rank and a node loss on another, with a
  // restart budget: the restarted run recomputes from the (corrected-once)
  // input and still delivers the exact spectrum.
  const std::size_t p = 4, n = 1024;
  const auto x = random_vector(n, InputDistribution::kNormal, 76);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.fail_rank = 2;
  opts.net.fail_phase = 1;
  opts.max_rank_restarts = 1;
  ParallelReport report;
  const auto got = parallel::parallel_fft_sharded(
      p, x, opts, &report, [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 1, 1, {5.0, 5.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.rank_restarts, 1u);
}

TEST(ShardedCampaign, StragglerRankRaisesModeledComm) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 77);
  ParallelReport clean, stalled;
  parallel::parallel_fft_sharded(p, x, ParallelOptions::opt_ft_fftw(), &clean);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.stall_rank = 1;
  opts.net.stall_seconds = 1e-3;
  const auto got = parallel::parallel_fft_sharded(p, x, opts, &stalled);
  expect_matches_sequential(x, got);
  // Three phases x (p-1) stalled messages each.
  EXPECT_GE(stalled.max_comm,
            clean.max_comm + 3.0 * static_cast<double>(p - 1) * 1e-3 * 0.999);
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
