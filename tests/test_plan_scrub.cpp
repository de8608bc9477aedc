// Plan-state protection (PR 9): every registry-cached plan carries an
// FNV-1a seal over its immutable payload; corruption of cached metadata
// (twiddles, permutation tables, checksum weights, syndrome nodes) must be
// detected — by an explicit scrub sweep or verify-on-acquire — and answered
// by evict + rebuild, never by serving poisoned state. The kPlanState fault
// campaigns prove the full loop: corrupt a span, run a protected transform,
// get output bit-identical to the clean run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "abft/protection_plan.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "common/seal.hpp"
#include "fault/injector.hpp"
#include "fft/inplace_radix2.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Phase;
using simd::Backend;

// Campaigns need immediate detection; restore the process-wide env-latched
// default afterwards so other suites see the configuration they started
// with.
struct VerifyGuard {
  VerifyGuard() { set_plan_verify_interval(1); }
  ~VerifyGuard() {
    set_plan_verify_interval(detail::default_plan_verify_interval());
  }
};

std::uint64_t total_corruptions() {
  std::uint64_t c = 0;
  for (const auto& s : plan_cache_stats()) c += s.corruptions;
  return c;
}

std::uint64_t total_verifications() {
  std::uint64_t v = 0;
  for (const auto& s : plan_cache_stats()) v += s.verifications;
  return v;
}

// Flips one low mantissa bit of the first double in a span — the smallest
// corruption a seal must still catch.
void flip_span_byte(const StateSpans::Span& sp) {
  auto* bytes = static_cast<unsigned char*>(const_cast<void*>(sp.data));
  bytes[0] ^= 0x01;
}

// ------------------------------------------------------------------ scrub

TEST(PlanScrub, ScrubDetectsACorruptedProtectionPlan) {
  const std::size_t n = 512;
  const Options opts = Options::online_opt(true);
  auto plan = abft::resolve_protection_plan(n, opts, false);
  ASSERT_NE(plan, nullptr);
  StateSpans s;
  plan->collect_state(s);
  ASSERT_FALSE(s.spans.empty());

  // Clean sweep first: every cached entry matches its seal.
  EXPECT_EQ(scrub_plan_caches(), 0u);

  flip_span_byte(s.spans[0]);
  EXPECT_GE(scrub_plan_caches(), 1u);  // detected + evicted
  EXPECT_EQ(scrub_plan_caches(), 0u);  // nothing corrupted remains cached

  // The next resolution rebuilds; the rebuilt plan seals clean.
  auto fresh = abft::resolve_protection_plan(n, opts, false);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), plan.get());
  EXPECT_EQ(scrub_plan_caches(), 0u);
}

TEST(PlanScrub, ScrubDetectsACorruptedFftTwiddle) {
  auto plan = fft::InplaceRadix2Plan::get(256);
  ASSERT_NE(plan, nullptr);
  StateSpans s;
  plan->collect_state(s);
  ASSERT_GE(s.spans.size(), 3u);
  ASSERT_EQ(scrub_plan_caches(), 0u);
  flip_span_byte(s.spans[2]);  // stage twiddle packs
  EXPECT_GE(scrub_plan_caches(), 1u);
  auto fresh = fft::InplaceRadix2Plan::get(256);
  EXPECT_NE(fresh.get(), plan.get());
}

TEST(PlanScrub, VerifyOnAcquireRebuildsACorruptedEntry) {
  VerifyGuard guard;
  const std::size_t n = 512;
  const Options opts = Options::online_opt(true);
  auto p1 = abft::resolve_protection_plan(n, opts, false);
  ASSERT_NE(p1, nullptr);
  StateSpans s;
  p1->collect_state(s);
  ASSERT_FALSE(s.spans.empty());

  const std::uint64_t corruptions_before = total_corruptions();
  flip_span_byte(s.spans[0]);
  auto p2 = abft::resolve_protection_plan(n, opts, false);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2.get(), p1.get());  // corrupted hit = miss + rebuild
  EXPECT_GT(total_corruptions(), corruptions_before);
  EXPECT_GT(total_verifications(), 0u);

  // The rebuilt entry survives the next verified acquire untouched.
  auto p3 = abft::resolve_protection_plan(n, opts, false);
  EXPECT_EQ(p3.get(), p2.get());
}

// --------------------------------------------------- kPlanState campaigns

// One campaign per scheme: for EVERY span of the resolved plan's state,
// corrupt it through the Phase::kPlanState hook mid-transform and demand
// (a) the corruption is detected by the verifying registries and (b) the
// delivered spectrum is bit-identical to the clean run — the rebuild serves
// fresh, correct metadata.
class PlanStateScheme : public ::testing::TestWithParam<int> {
 protected:
  static Options scheme_options(int id) {
    return id == 0 ? Options::offline_opt(true) : Options::online_opt(true);
  }
  static bool inplace_entry(int id) { return id == 2; }

  static std::vector<cplx> run(const std::vector<cplx>& x, const Options& o,
                               bool inplace) {
    Stats stats;
    if (inplace) {
      auto data = x;
      abft::protected_transform_inplace(data.data(), x.size(), o, stats);
      return data;
    }
    auto in = x;
    std::vector<cplx> out(x.size());
    abft::protected_transform(in.data(), out.data(), x.size(), o, stats);
    return out;
  }
};

TEST_P(PlanStateScheme, EveryCorruptedSpanIsDetectedRebuiltAndHarmless) {
  VerifyGuard guard;
  const std::size_t n = 512;
  const Options opts = scheme_options(GetParam());
  const bool inplace = inplace_entry(GetParam());
  const auto x =
      random_vector(n, InputDistribution::kUniform, 7000 + GetParam());

  const auto clean = run(x, opts, inplace);

  auto plan = abft::resolve_protection_plan(n, opts, inplace);
  ASSERT_NE(plan, nullptr);
  StateSpans s;
  plan->collect_state(s);
  ASSERT_FALSE(s.spans.empty());
  const std::size_t spans = s.spans.size();
  plan.reset();

  const std::uint64_t before = total_corruptions();
  std::size_t injected = 0;
  for (std::size_t i = 0; i < spans; ++i) {
    if (s.spans[i].bytes < sizeof(cplx)) continue;  // below hook granularity
    fault::Injector inj;
    inj.schedule(FaultSpec::bit_flip(Phase::kPlanState, i, 0, 40, false));
    Options fo = opts;
    fo.injector = &inj;
    const auto got = run(x, fo, inplace);
    EXPECT_EQ(inj.fired_count(), 1u) << "span " << i;
    ++injected;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(got[j].real(), clean[j].real()) << "span " << i << " j=" << j;
      ASSERT_EQ(got[j].imag(), clean[j].imag()) << "span " << i << " j=" << j;
    }
  }
  ASSERT_GT(injected, 0u);
  // Every injected corruption was caught by at least one registry seal.
  EXPECT_GE(total_corruptions() - before, injected);
}

INSTANTIATE_TEST_SUITE_P(Schemes, PlanStateScheme, ::testing::Range(0, 3),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           switch (pi.param) {
                             case 0:
                               return "offline";
                             case 1:
                               return "online";
                             default:
                               return "inplace";
                           }
                         });

// The detect/rebuild loop must behave identically whichever SIMD backend
// executes: same fired count, same clean-vs-faulted bit identity per
// backend.
TEST(PlanStateCampaign, IdenticalAcrossBackends) {
  VerifyGuard guard;
  const std::size_t n = 512;
  const auto x = random_vector(n, InputDistribution::kNormal, 7100);

  struct BackendGuard {
    Backend prev = simd::active_backend();
    ~BackendGuard() { simd::set_backend(prev); }
  } backend_guard;

  std::vector<Backend> backends{Backend::kScalar};
  if (simd::backend_available(Backend::kAvx2)) backends.push_back(Backend::kAvx2);
  if (simd::backend_available(Backend::kNeon)) backends.push_back(Backend::kNeon);

  for (Backend b : backends) {
    ASSERT_TRUE(simd::set_backend(b));
    const Options opts = Options::online_opt(true);

    Stats stats;
    auto in = x;
    std::vector<cplx> clean(n);
    abft::protected_transform(in.data(), clean.data(), n, opts, stats);

    fault::Injector inj;
    inj.schedule(FaultSpec::bit_flip(Phase::kPlanState, 0, 0, 40, false));
    Options fo = opts;
    fo.injector = &inj;
    const std::uint64_t before = total_corruptions();
    in = x;
    std::vector<cplx> got(n);
    abft::protected_transform(in.data(), got.data(), n, fo, stats);
    EXPECT_EQ(inj.fired_count(), 1u) << simd::backend_name(b);
    EXPECT_GT(total_corruptions(), before) << simd::backend_name(b);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(got[j].real(), clean[j].real())
          << simd::backend_name(b) << " j=" << j;
      ASSERT_EQ(got[j].imag(), clean[j].imag())
          << simd::backend_name(b) << " j=" << j;
    }
  }
}

// Without an armed kPlanState fault the hook is free: no plan resolution
// happens before dispatch and a fault targeting another phase behaves as
// before (sanity for the pending() fast path).
TEST(PlanStateCampaign, HookIsInertWithoutArmedPlanFaults) {
  const std::size_t n = 256;
  const auto x = random_vector(n, InputDistribution::kUniform, 7200);
  Options opts = Options::online_opt(true);
  fault::Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 0, 3, {5.0, 1.0}));
  opts.injector = &inj;
  Stats stats;
  auto in = x;
  std::vector<cplx> out(n);
  abft::protected_transform(in.data(), out.data(), n, opts, stats);
  EXPECT_EQ(inj.fired_count(), 1u);
  EXPECT_FALSE(inj.pending(Phase::kPlanState));
}

}  // namespace
}  // namespace ftfft
