// Protected real transforms (abft/real_protection.hpp) and their batch
// entry points: accuracy vs the unprotected path, kNone passthrough,
// post-pass fault campaigns with identical outcomes across every SIMD
// backend, forced-uncorrectable behavior,
// the warm_real_plans zero-build contract, batch-vs-serial bit identity
// and per-lane fault isolation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "abft/protection_plan.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "fault/bitflip.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;
using simd::Backend;

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (simd::backend_available(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (simd::backend_available(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

struct BackendGuard {
  Backend prev = simd::active_backend();
  ~BackendGuard() { simd::set_backend(prev); }
};

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  auto z = random_vector(n, InputDistribution::kNormal, seed);
  std::vector<double> x(n);
  for (std::size_t j = 0; j < n; ++j) x[j] = z[j].real();
  return x;
}

double max_dev(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double worst = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    worst = std::max(worst, std::abs(a[j] - b[j]));
  }
  return worst;
}

TEST(RealProtected, MatchesUnprotectedAcrossModes) {
  for (std::size_t n : {4u, 8u, 64u, 256u, 2048u, 16384u}) {
    auto x = random_signal(n, 100 + n);
    std::vector<cplx> want(n / 2 + 1);
    fft::r2c(x.data(), n, want.data());
    const double scale = std::sqrt(static_cast<double>(n));
    for (const bool online : {false, true}) {
      const Options opts =
          online ? Options::online_opt(true) : Options::offline_opt(true);
      std::vector<cplx> spec(n / 2 + 1);
      std::vector<double> back(n);
      Stats stats;
      auto copy = x;
      abft::protected_r2c(copy.data(), spec.data(), n, opts, stats);
      EXPECT_LT(max_dev(spec, want), 1e-9 * scale)
          << "n=" << n << " online=" << online;
      EXPECT_GE(stats.verifications, 1u);
      EXPECT_GT(stats.eta_real, 0.0);
      Stats istats;
      abft::protected_c2r(spec.data(), back.data(), n, opts, istats);
      double worst = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        worst = std::max(worst, std::fabs(back[j] - x[j]));
      }
      EXPECT_LT(worst, 1e-11 * scale) << "n=" << n << " online=" << online;
      EXPECT_GT(istats.eta_real, 0.0);
    }
  }
}

TEST(RealProtected, ModeNoneIsBitwiseThePlainPath) {
  for (std::size_t n : {2u, 8u, 1024u}) {
    auto x = random_signal(n, 300 + n);
    std::vector<cplx> want(n / 2 + 1), spec(n / 2 + 1);
    fft::r2c(x.data(), n, want.data());
    Options opts = Options::none();
    Stats stats;
    auto copy = x;
    abft::protected_r2c(copy.data(), spec.data(), n, opts, stats);
    EXPECT_EQ(0, std::memcmp(spec.data(), want.data(),
                             spec.size() * sizeof(cplx)))
        << "n=" << n;
    std::vector<double> want_back(n), back(n);
    fft::c2r(want.data(), n, want_back.data());
    abft::protected_c2r(spec.data(), back.data(), n, opts, stats);
    EXPECT_EQ(0,
              std::memcmp(back.data(), want_back.data(), n * sizeof(double)))
        << "n=" << n;
  }
}

// One post-pass fault campaign outcome: what the protection reported and
// whether the delivered result still matched the clean run.
struct Outcome {
  std::size_t detected = 0;
  std::size_t restarts = 0;
  bool threw = false;
  bool output_clean = false;

  bool operator==(const Outcome&) const = default;
};

FaultSpec post_pass_fault(int kind, std::size_t element) {
  switch (kind) {
    case 0:
      return FaultSpec::computational(Phase::kRealPostPass, 0, element,
                                      {25.0, -40.0});
    case 1:
      return FaultSpec::memory_set(Phase::kRealPostPass, 0, element,
                                   {-333.0, 77.0});
    default:
      return FaultSpec::bit_flip(Phase::kRealPostPass, 0, element,
                                 fault::kFirstHighBit + 4, true);
  }
}

Outcome run_r2c_campaign(std::size_t n, int kind,
                         const std::vector<double>& x,
                         const std::vector<cplx>& clean) {
  Options opts = Options::online_opt(true);
  Injector inj;
  inj.schedule(post_pass_fault(kind, (n / 2) / 3 + 1));
  opts.injector = &inj;
  Outcome o;
  std::vector<cplx> spec(n / 2 + 1);
  Stats stats;
  auto copy = x;
  try {
    abft::protected_r2c(copy.data(), spec.data(), n, opts, stats);
    o.output_clean = std::memcmp(spec.data(), clean.data(),
                                 spec.size() * sizeof(cplx)) == 0;
  } catch (const UncorrectableError&) {
    o.threw = true;
  }
  o.detected = stats.comp_errors_detected;
  o.restarts = stats.full_restarts;
  return o;
}

Outcome run_c2r_campaign(std::size_t n, int kind, std::vector<cplx> spec,
                         const std::vector<double>& clean) {
  Options opts = Options::online_opt(true);
  Injector inj;
  inj.schedule(post_pass_fault(kind, (n / 2) / 4 + 1));
  opts.injector = &inj;
  Outcome o;
  std::vector<double> back(n);
  Stats stats;
  try {
    abft::protected_c2r(spec.data(), back.data(), n, opts, stats);
    o.output_clean =
        std::memcmp(back.data(), clean.data(), n * sizeof(double)) == 0;
  } catch (const UncorrectableError&) {
    o.threw = true;
  }
  o.detected = stats.comp_errors_detected;
  o.restarts = stats.full_restarts;
  return o;
}

// The headline parity requirement: an injected post-pass fault produces the
// SAME campaign outcome — detection count, restart count, thrown-or-not,
// and a delivered result identical to the fault-free run — on every
// compiled-in backend.
TEST(RealProtected, PostPassCampaignOutcomesIdenticalAcrossBackendsAndModes) {
  BackendGuard guard;
  for (std::size_t n : {8u, 64u, 1024u, 8192u}) {
    const auto x = random_signal(n, 400 + n);
    for (int kind = 0; kind < 3; ++kind) {
      bool have_ref = false;
      Outcome ref;
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        // Clean run under this exact backend, for bit comparison.
        const Options clean_opts = Options::online_opt(true);
        std::vector<cplx> clean_spec(n / 2 + 1);
        Stats clean_stats;
        auto copy = x;
        abft::protected_r2c(copy.data(), clean_spec.data(), n, clean_opts,
                            clean_stats);
        std::vector<double> clean_back(n);
        Stats clean_istats;
        abft::protected_c2r(clean_spec.data(), clean_back.data(), n,
                            clean_opts, clean_istats);

        const Outcome fwd = run_r2c_campaign(n, kind, x, clean_spec);
        const Outcome inv = run_c2r_campaign(n, kind, clean_spec, clean_back);
        const std::string where = "n=" + std::to_string(n) +
                                  " kind=" + std::to_string(kind) +
                                  " backend=" + simd::backend_name(b);
        // Within the single-fault model the post-pass restart must fully
        // recover: fault detected, one restart, clean bits delivered.
        EXPECT_EQ(fwd.detected, 1u) << where;
        EXPECT_EQ(fwd.restarts, 1u) << where;
        EXPECT_FALSE(fwd.threw) << where;
        EXPECT_TRUE(fwd.output_clean) << where;
        if (!have_ref) {
          ref = fwd;
          have_ref = true;
        }
        EXPECT_EQ(fwd, ref) << where;
        EXPECT_EQ(inv.detected, 1u) << where;
        EXPECT_EQ(inv.restarts, 1u) << where;
        EXPECT_FALSE(inv.threw) << where;
        EXPECT_TRUE(inv.output_clean) << where;
      }
    }
  }
}

TEST(RealProtected, ImpossibleThresholdReportsUncorrectable) {
  // An eta no finite-precision run can meet turns the bounded retry loop
  // into a reported UncorrectableError instead of silent delivery.
  const std::size_t n = 512;
  auto x = random_signal(n, 42);
  Options opts = Options::online_opt(true);
  opts.eta_override = 1e-30;
  opts.max_retries = 2;
  std::vector<cplx> spec(n / 2 + 1);
  Stats stats;
  EXPECT_THROW(abft::protected_r2c(x.data(), spec.data(), n, opts, stats),
               UncorrectableError);
  fft::r2c(x.data(), n, spec.data());
  std::vector<double> back(n);
  Stats istats;
  EXPECT_THROW(abft::protected_c2r(spec.data(), back.data(), n, opts, istats),
               UncorrectableError);
}

TEST(RealProtected, PlanCacheRowPresent) {
  (void)abft::RealProtectionPlan::get(256);
  bool found = false;
  for (const auto& row : plan_cache_stats()) {
    if (std::string(row.name) == "real-protection-plan") {
      found = true;
      EXPECT_GE(row.size, 1u);
    }
  }
  EXPECT_TRUE(found) << "plan_cache_stats has no real-protection-plan row";
}

// Satellite 1: after warm_real_plans, a submit_real_batch of warmed sizes
// performs zero plan builds of any kind and zero rA-generation passes.
TEST(RealProtected, WarmedRealBatchDoesZeroBuildsAndZeroRaGenerations) {
  const std::size_t n = 1u << 15;  // used by no other test in this binary
  const std::array<std::size_t, 1> sizes{n};
  const PlanConfig config{};  // online, memory FT, optimized
  EXPECT_GE(warm_real_plans(sizes, config), 1u);

  const auto real_builds = fft::RealFftPlan::build_count();
  const auto rprot_builds = abft::RealProtectionPlan::build_count();
  const auto prot_builds = abft::ProtectionPlan::build_count();
  const auto ra_gens = checksum::ra_generations();

  constexpr std::size_t kLanes = 3;
  std::vector<double> re(kLanes * n);
  std::vector<cplx> spec(kLanes * (n / 2 + 1));
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto x = random_signal(n, 500 + l);
    std::copy(x.begin(), x.end(), re.begin() + l * n);
  }
  engine::BatchEngine& eng = engine::BatchEngine::shared();
  const engine::BatchOptions bopts{make_abft_options(config)};
  auto fwd = eng.submit_real_batch(
      std::vector<engine::RealLane>{
          {re.data(), spec.data(), nullptr},
          {re.data() + n, spec.data() + (n / 2 + 1), nullptr},
          {re.data() + 2 * n, spec.data() + 2 * (n / 2 + 1), nullptr}},
      n, engine::RealDirection::kForward, bopts);
  auto rep = fwd.get();
  EXPECT_TRUE(rep.all_ok());
  auto inv = eng.submit_real_batch(
      std::vector<engine::RealLane>{{re.data(), spec.data(), nullptr}}, n,
      engine::RealDirection::kInverse, bopts);
  EXPECT_TRUE(inv.get().all_ok());

  EXPECT_EQ(fft::RealFftPlan::build_count(), real_builds);
  EXPECT_EQ(abft::RealProtectionPlan::build_count(), rprot_builds);
  EXPECT_EQ(abft::ProtectionPlan::build_count(), prot_builds);
  EXPECT_EQ(checksum::ra_generations(), ra_gens);
}

TEST(RealProtected, BatchMatchesSerialBitwise) {
  const std::size_t n = 4096;
  constexpr std::size_t kLanes = 4;
  const PlanConfig config{};
  const Options opts = make_abft_options(config);

  std::vector<std::vector<double>> xs;
  std::vector<std::vector<cplx>> want_specs;
  std::vector<std::vector<double>> want_backs;
  for (std::size_t l = 0; l < kLanes; ++l) {
    xs.push_back(random_signal(n, 600 + l));
    std::vector<cplx> spec(n / 2 + 1);
    Stats stats;
    auto copy = xs.back();
    abft::protected_r2c(copy.data(), spec.data(), n, opts, stats);
    std::vector<double> back(n);
    Stats istats;
    abft::protected_c2r(spec.data(), back.data(), n, opts, istats);
    want_specs.push_back(std::move(spec));
    want_backs.push_back(std::move(back));
  }

  std::vector<double> re(kLanes * n);
  std::vector<cplx> spec(kLanes * (n / 2 + 1));
  std::vector<engine::RealLane> lanes(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::copy(xs[l].begin(), xs[l].end(), re.begin() + l * n);
    lanes[l] = {re.data() + l * n, spec.data() + l * (n / 2 + 1), nullptr};
  }
  auto rep = engine::BatchEngine::shared().submit_real_batch(
      lanes, n, engine::RealDirection::kForward, {.abft = opts});
  EXPECT_TRUE(rep.get().all_ok());
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(0, std::memcmp(spec.data() + l * (n / 2 + 1),
                             want_specs[l].data(),
                             (n / 2 + 1) * sizeof(cplx)))
        << "lane " << l;
  }
  auto irep = engine::BatchEngine::shared().submit_real_batch(
      lanes, n, engine::RealDirection::kInverse, {.abft = opts});
  EXPECT_TRUE(irep.get().all_ok());
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(0, std::memcmp(re.data() + l * n, want_backs[l].data(),
                             n * sizeof(double)))
        << "lane " << l;
  }
}

TEST(RealProtected, PerLaneFaultIsolation) {
  const std::size_t n = 2048;
  constexpr std::size_t kLanes = 4;
  std::vector<double> re(kLanes * n);
  std::vector<cplx> spec(kLanes * (n / 2 + 1));
  std::vector<cplx> clean(kLanes * (n / 2 + 1));
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto x = random_signal(n, 700 + l);
    std::copy(x.begin(), x.end(), re.begin() + l * n);
  }
  engine::BatchEngine& eng = engine::BatchEngine::shared();
  const engine::BatchOptions bopts{make_abft_options(PlanConfig{})};
  // Fault-free reference batch.
  {
    std::vector<engine::RealLane> lanes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes.push_back({re.data() + l * n, clean.data() + l * (n / 2 + 1),
                       nullptr});
    }
    EXPECT_TRUE(eng.submit_real_batch(lanes, n,
                                      engine::RealDirection::kForward, bopts)
                    .get()
                    .all_ok());
  }
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kRealPostPass, 0, 17,
                                        {60.0, -12.0}));
  std::vector<engine::RealLane> lanes;
  for (std::size_t l = 0; l < kLanes; ++l) {
    lanes.push_back({re.data() + l * n, spec.data() + l * (n / 2 + 1),
                     l == 2 ? &inj : nullptr});
  }
  const auto rep =
      eng.submit_real_batch(lanes, n, engine::RealDirection::kForward, bopts)
          .get();
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(inj.fired_count(), 1u);
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(rep.per_lane[l].comp_errors_detected, l == 2 ? 1u : 0u)
        << "lane " << l;
    EXPECT_EQ(0, std::memcmp(spec.data() + l * (n / 2 + 1),
                             clean.data() + l * (n / 2 + 1),
                             (n / 2 + 1) * sizeof(cplx)))
        << "lane " << l;
  }
}

TEST(RealProtected, BatchWideInjectorRejectedOnMultiLaneMultiThread) {
  engine::BatchEngine eng(2);
  if (eng.num_threads() < 2) GTEST_SKIP() << "single-threaded engine";
  const std::size_t n = 64;
  std::vector<double> re(2 * n, 1.0);
  std::vector<cplx> spec(2 * (n / 2 + 1));
  Injector inj;
  engine::BatchOptions opts;
  opts.abft = Options::online_opt(true);
  opts.abft.injector = &inj;
  const std::vector<engine::RealLane> lanes{
      {re.data(), spec.data(), nullptr},
      {re.data() + n, spec.data() + (n / 2 + 1), nullptr}};
  EXPECT_THROW(eng.submit_real_batch(lanes, n, engine::RealDirection::kForward,
                                     opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftfft
