// Property-based fault-injection campaigns: for randomized faults across
// random phases, units and magnitudes, the protected transforms must either
// return the correct spectrum or throw UncorrectableError — never silently
// deliver a wrong answer for faults within the single-fault-per-unit model.
#include <gtest/gtest.h>

#include <vector>

#include "abft/inplace.hpp"
#include "abft/online.hpp"
#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/bitflip.hpp"
#include "fault/injector.hpp"
#include "fft/fft.hpp"

namespace ftfft {
namespace {

using abft::Mode;
using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

constexpr std::size_t kN = 1024;  // m = k = 32

std::vector<cplx> truth(const std::vector<cplx>& x) { return fft::fft(x); }

double max_dev(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return inf_diff(a.data(), b.data(), a.size());
}

// One random fault within the correctable model (detectable magnitude,
// localizable position).
FaultSpec random_fault(Rng& rng) {
  const Phase phases[] = {Phase::kInputAfterChecksum, Phase::kMFftOutput,
                          Phase::kIntermediate,       Phase::kTwiddleDmrCopy,
                          Phase::kKFftOutput,         Phase::kFinalOutput};
  const Phase phase = phases[rng.below(6)];
  const std::size_t unit =
      (phase == Phase::kMFftOutput || phase == Phase::kKFftOutput ||
       phase == Phase::kTwiddleDmrCopy)
          ? rng.below(32)
          : 0;
  const std::size_t element = rng.below(
      (phase == Phase::kMFftOutput || phase == Phase::kKFftOutput ||
       phase == Phase::kTwiddleDmrCopy)
          ? 32
          : kN);
  switch (rng.below(3)) {
    case 0:
      return FaultSpec::computational(phase, unit, element,
                                      {rng.uniform(0.5, 100.0),
                                       rng.uniform(-100.0, -0.5)});
    case 1:
      return FaultSpec::memory_set(phase, unit, element,
                                   {rng.uniform(-500.0, 500.0),
                                    rng.uniform(-500.0, 500.0)});
    default:
      return FaultSpec::bit_flip(
          phase, unit, element,
          fault::kFirstHighBit + static_cast<unsigned>(rng.below(22)),
          rng.below(2) == 0);
  }
}

class CampaignSeed : public ::testing::TestWithParam<int> {};

TEST_P(CampaignSeed, OnlineMemorySchemeSurvivesRandomSingleFault) {
  Rng rng(10000 + GetParam());
  auto x = random_vector(kN, InputDistribution::kUniform, 20000 + GetParam());
  const auto want = truth(x);
  Injector inj;
  inj.schedule(random_fault(rng));
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(kN);
  Stats stats;
  try {
    abft::online_transform(x.data(), out.data(), kN, opts, stats);
    EXPECT_LT(max_dev(out, want), 1e-8)
        << "silent corruption with seed " << GetParam();
    EXPECT_EQ(inj.fired_count(), 1u);
  } catch (const UncorrectableError&) {
    // Acceptable outcome: reported, not silent (e.g. NaN contamination).
  }
}

TEST_P(CampaignSeed, InplaceSchemeSurvivesRandomSingleFault) {
  Rng rng(30000 + GetParam());
  auto x = random_vector(kN, InputDistribution::kNormal, 40000 + GetParam());
  const auto want = truth(x);
  Injector inj;
  inj.schedule(random_fault(rng));
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  Stats stats;
  try {
    abft::inplace_online_transform(x.data(), kN, opts, stats);
    EXPECT_LT(max_dev(x, want), 1e-8)
        << "silent corruption with seed " << GetParam();
  } catch (const UncorrectableError&) {
  }
}

TEST_P(CampaignSeed, MultiFaultAcrossDistinctUnits) {
  Rng rng(50000 + GetParam());
  auto x = random_vector(kN, InputDistribution::kUniform, 60000 + GetParam());
  const auto want = truth(x);
  Injector inj;
  // One computational fault per layer in distinct units plus one memory
  // fault: all inside the fault model.
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, rng.below(32),
                                        rng.below(32),
                                        {rng.uniform(1.0, 50.0), 2.0}));
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, rng.below(32),
                                        rng.below(32),
                                        {-3.0, rng.uniform(1.0, 50.0)}));
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                     rng.below(kN),
                                     {rng.uniform(-90.0, 90.0), 11.0}));
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(kN);
  Stats stats;
  abft::online_transform(x.data(), out.data(), kN, opts, stats);
  EXPECT_LT(max_dev(out, want), 1e-8);
  EXPECT_EQ(inj.fired_count(), 3u);
  EXPECT_GE(stats.comp_errors_detected + stats.mem_errors_detected, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignSeed, ::testing::Range(0, 25),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           return "seed" + std::to_string(pi.param);
                         });

TEST(Campaign, EveryOptimizationComboSurvivesTheSameFaultLoad) {
  // Both section-4 hierarchies (naive and optimized) of every scheme handle
  // the same load: one input memory set after the checksums plus one
  // computational fault at the scheme's own output phase.
  struct Scheme {
    const char* name;
    Mode mode;
    bool inplace;
    Phase out_phase;  // the scheme's computational output phase
    std::size_t unit;
  };
  const Scheme schemes[] = {
      {"online", Mode::kOnline, false, Phase::kMFftOutput, 9},
      {"inplace", Mode::kOnline, true, Phase::kMFftOutput, 9},
      {"offline", Mode::kOffline, false, Phase::kWholeFftOutput, 0},
  };
  auto x = random_vector(kN, InputDistribution::kUniform, 777);
  const auto want = truth(x);
  for (const Scheme& scheme : schemes) {
    for (const bool optimized : {false, true}) {
      SCOPED_TRACE(testing::Message() << scheme.name
                                      << " optimized=" << optimized);
      Injector inj;
      inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 321,
                                         {44.0, -4.0}));
      inj.schedule(
          FaultSpec::computational(scheme.out_phase, scheme.unit, 3,
                                   {7.0, 7.0}));
      Options opts = Options::online_opt(true);
      opts.mode = scheme.mode;
      opts.optimized = optimized;
      opts.injector = &inj;
      std::vector<cplx> out = x;
      Stats stats;
      if (scheme.inplace) {
        abft::protected_transform_inplace(out.data(), kN, opts, stats);
      } else {
        auto copy = x;
        abft::protected_transform(copy.data(), out.data(), kN, opts, stats);
      }
      EXPECT_LT(max_dev(out, want), 1e-8);
      EXPECT_EQ(inj.fired_count(), 2u);
      // The input set is repaired in place; the computational fault costs a
      // re-execution (the offline restart covers both).
      EXPECT_EQ(stats.mem_errors_corrected, 1u);
      EXPECT_GE(stats.sub_fft_retries + stats.full_restarts, 1u);
    }
  }
}

TEST(Campaign, BackToBackTransformsStayClean) {
  // A long-running loop with a fault every other run: state (plan caches,
  // stats) must not leak between executions.
  auto x = random_vector(kN, InputDistribution::kNormal, 888);
  const auto want = truth(x);
  Options opts = Options::online_opt(true);
  for (int run = 0; run < 10; ++run) {
    Injector inj;
    if (run % 2 == 0) {
      inj.schedule(FaultSpec::computational(Phase::kKFftOutput,
                                            static_cast<std::size_t>(run), 1,
                                            {5.0, 5.0}));
    }
    opts.injector = &inj;
    std::vector<cplx> out(kN);
    Stats stats;
    auto copy = x;
    abft::online_transform(copy.data(), out.data(), kN, opts, stats);
    ASSERT_LT(max_dev(out, want), 1e-8) << "run=" << run;
    ASSERT_EQ(stats.comp_errors_detected, run % 2 == 0 ? 1u : 0u);
  }
}

}  // namespace
}  // namespace ftfft
