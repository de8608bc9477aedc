#include "core/ftfft.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dft/reference_dft.hpp"

namespace ftfft {
namespace {

void expect_matches_reference(const std::vector<cplx>& x,
                              const std::vector<cplx>& got) {
  const auto want = dft::reference_dft(x);
  const double tol = 1e-10 * static_cast<double>(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << j;
  }
}

TEST(FtPlan, DefaultConfigTransformsCorrectly) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 1);
  FtPlan plan(n);
  const auto spectrum = plan.forward(x);
  expect_matches_reference(x, spectrum);
  EXPECT_EQ(plan.last_stats().comp_errors_detected, 0u);
  EXPECT_GT(plan.last_stats().verifications, 0u);
}

TEST(FtPlan, AllProtectionLevelsAgree) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kNormal, 2);
  std::vector<std::vector<cplx>> results;
  for (Protection prot :
       {Protection::kNone, Protection::kOffline, Protection::kOnline}) {
    PlanConfig cfg;
    cfg.protection = prot;
    FtPlan plan(n, cfg);
    results.push_back(plan.forward(x));
  }
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(std::abs(results[0][j] - results[1][j]), 0.0, 1e-9);
    ASSERT_NEAR(std::abs(results[0][j] - results[2][j]), 0.0, 1e-9);
  }
}

TEST(FtPlan, ForwardInplaceMatchesOutOfPlace) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 3);
  FtPlan plan(n);
  const auto oop = plan.forward(x);
  std::vector<cplx> ip = x;
  plan.forward_inplace(ip.data());
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(std::abs(ip[j] - oop[j]), 0.0,
                1e-9 * static_cast<double>(n));
  }
}

TEST(FtPlan, BackwardInvertsForward) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kNormal, 4);
  FtPlan plan(n);
  auto spectrum = plan.forward(x);
  std::vector<cplx> back(n);
  plan.backward(spectrum.data(), back.data());
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_NEAR(std::abs(back[t] - x[t]), 0.0, 1e-10);
  }
}

TEST(FtPlan, InjectedFaultIsCorrectedThroughTheFacade) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 5);
  fault::Injector inj;
  inj.schedule(fault::FaultSpec::computational(fault::Phase::kMFftOutput, 2,
                                               4, {9.0, -9.0}));
  inj.schedule(fault::FaultSpec::memory_set(fault::Phase::kInputAfterChecksum,
                                            0, 333, {21.0, 2.0}));
  PlanConfig cfg;
  cfg.injector = &inj;
  FtPlan plan(n, cfg);
  const auto spectrum = plan.forward(x);
  expect_matches_reference(x, spectrum);
  EXPECT_EQ(plan.last_stats().comp_errors_detected, 1u);
  EXPECT_EQ(plan.last_stats().mem_errors_corrected, 1u);
}

TEST(FtPlan, OfflineInplaceStagesThroughScratch) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 6);
  PlanConfig cfg;
  cfg.protection = Protection::kOffline;
  FtPlan plan(n, cfg);
  std::vector<cplx> ip = x;
  plan.forward_inplace(ip.data());
  expect_matches_reference(x, ip);
}

TEST(FtPlan, UnprotectedModeRunsPlainFft) {
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 7);
  PlanConfig cfg;
  cfg.protection = Protection::kNone;
  FtPlan plan(n, cfg);
  const auto got = plan.forward(x);
  expect_matches_reference(x, got);
  EXPECT_EQ(plan.last_stats().verifications, 0u);
}

TEST(FtPlan, StatsResetBetweenExecutions) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 8);
  fault::Injector inj;
  inj.schedule(fault::FaultSpec::computational(fault::Phase::kMFftOutput, 1,
                                               1, {3.0, 3.0}));
  PlanConfig cfg;
  cfg.injector = &inj;
  FtPlan plan(n, cfg);
  (void)plan.forward(x);
  EXPECT_EQ(plan.last_stats().comp_errors_detected, 1u);
  (void)plan.forward(x);  // fault was one-shot; second run is clean
  EXPECT_EQ(plan.last_stats().comp_errors_detected, 0u);
}

TEST(FtPlan, SizeMismatchThrows) {
  FtPlan plan(64);
  std::vector<cplx> wrong(32);
  EXPECT_THROW((void)plan.forward(wrong), std::invalid_argument);
}

TEST(FtPlan, VersionStringPresent) {
  EXPECT_NE(std::strstr(FtPlan::version(), "ftfft"), nullptr);
}

TEST(MakeAbftOptions, OptimizedSwitchGivesTheOnlinePresetFieldForField) {
  for (const bool memory : {false, true}) {
    for (const bool optimized : {false, true}) {
      PlanConfig config;
      config.memory_fault_tolerance = memory;
      config.optimized = optimized;
      const abft::Options got = make_abft_options(config);
      const abft::Options want = optimized
                                     ? abft::Options::online_opt(memory)
                                     : abft::Options::online_naive(memory);
      SCOPED_TRACE(testing::Message()
                   << "memory=" << memory << " optimized=" << optimized);
      EXPECT_EQ(got.mode, want.mode);
      EXPECT_EQ(got.memory_ft, want.memory_ft);
      EXPECT_EQ(got.optimized, want.optimized);
      EXPECT_EQ(got.max_correctable_errors, want.max_correctable_errors);
      EXPECT_EQ(got.eta_override, want.eta_override);
      EXPECT_EQ(got.max_retries, want.max_retries);
      EXPECT_EQ(got.injector, want.injector);
      EXPECT_EQ(got.backup_in_input, want.backup_in_input);
    }
  }
}

}  // namespace
}  // namespace ftfft
