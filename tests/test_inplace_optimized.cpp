// The in-place engine (COBRA permutation + fused opener + cache-blocked
// stages + radix-16 tail + fused inverse scaling) must be BIT-identical to
// a plain unblocked schedule kept here as the oracle (pair-swap permute,
// one radix-4 stage per level pair over the whole array, separate 1/n
// sweep) on every compiled-in backend: permutation and tiling reorder no
// butterfly, the radix-16 pass runs its two radix-4 stages' exact operation
// sequences in registers, and the fused scaling multiplies already-rounded
// results (radix-8 grouping was rejected — it cannot reproduce the radix-4
// FMA rounding; see fft/inplace_radix2.hpp). The bit-reversed entry point
// must equal forward_copy of the natural input bitwise. Also re-runs a
// fault-injection campaign through the ABFT in-place wrapper at a size that
// takes the COBRA path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/options.hpp"
#include "common/complex.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "fault/injector.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using fft::InplaceRadix2Plan;
using fft::InplaceTuning;
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

// The oracle: a reverse_bits swap walk, the twiddle-free opener, then one
// radix-4 stage per pair of levels over the whole array with freshly
// computed twiddles w1 = omega_n^(j n / 2^s), w2 = omega_n^(j n / 2^(s+1)),
// then a separate 1/n sweep for the inverse. No blocking, no COBRA, no
// radix-16 fusion, no fused scaling.
std::vector<cplx> oracle_transform(std::vector<cplx> x, bool inverse) {
  const std::size_t n = x.size();
  const unsigned log2n = log2_floor(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = fft::reverse_bits(i, log2n);
    if (i < r) std::swap(x[i], x[r]);
  }
  const auto& k = simd::fft_kernels();
  unsigned s = 1;
  if (log2n & 1u) {
    k.radix2_stage0(x.data(), n);
    s = 2;
  }
  for (; s + 1 <= log2n; s += 2) {
    const std::size_t len = std::size_t{1} << (s + 1);
    if (len == 4) {
      k.radix4_first_stage(x.data(), n, inverse);
      continue;
    }
    std::vector<cplx> w1(len / 4), w2(len / 4);
    for (std::size_t j = 0; j < len / 4; ++j) {
      w1[j] = omega(n, j * (n >> s));
      w2[j] = omega(n, j * (n >> (s + 1)));
    }
    k.radix4_stage(x.data(), n, len, w1.data(), w2.data(), inverse, 1.0);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (cplx& v : x) v *= inv_n;
  }
  return x;
}

void expect_bitwise_equal(const std::vector<cplx>& got,
                          const std::vector<cplx>& want, const char* what,
                          std::size_t n, Backend b) {
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(cplx)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(cplx)), 0)
        << what << " first divergence at i=" << i << " n=" << n
        << " backend=" << simd::backend_name(b) << " got=" << got[i]
        << " want=" << want[i];
  }
}

TEST(InplaceOptimized, ForwardBitIdenticalToReferenceUpTo2_20) {
  BackendGuard guard;
  for (unsigned log2n = 0; log2n <= 20; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = random_vector(n, InputDistribution::kUniform, 1000 + log2n);
    const auto plan = InplaceRadix2Plan::get(n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const auto ref = oracle_transform(x, /*inverse=*/false);
      auto got = x;
      plan->forward(got.data());
      expect_bitwise_equal(got, ref, "forward", n, b);
    }
  }
}

TEST(InplaceOptimized, InverseBitIdenticalToReferenceIncludingFusedScaling) {
  BackendGuard guard;
  for (unsigned log2n = 0; log2n <= 20; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = random_vector(n, InputDistribution::kNormal, 2000 + log2n);
    const auto plan = InplaceRadix2Plan::get(n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const auto ref = oracle_transform(x, /*inverse=*/true);
      auto got = x;
      plan->inverse(got.data());
      expect_bitwise_equal(got, ref, "inverse", n, b);
    }
  }
}

// Small cache windows force the radix-16 regrouping (and COBRA) at
// test-cheap sizes: with block_log2 = 8 the tail has 1..4 whole-array
// radix-4 stages across log2n = 9..16, covering every pairing case
// (even/odd tail stage counts, both log2n parities) well below 2^20.
TEST(InplaceOptimized, SmallWindowPlansExerciseRadix16BitIdentically) {
  BackendGuard guard;
  InplaceTuning tuning;
  tuning.block_log2 = 8;
  tuning.cobra_tile_bits = 4;
  tuning.cobra_min_log2 = 9;
  for (unsigned log2n = 9; log2n <= 16; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const InplaceRadix2Plan plan(n, tuning);
    ASSERT_TRUE(plan.cobra_enabled()) << "log2n=" << log2n;
    // Blocked stages cover levels 1..8 (even log2n) or 1..7 (odd log2n,
    // where the opener burned level 1 and stage starts are even); the tail
    // pairs its radix-4 stages into radix-16 passes, one left over when odd.
    const std::size_t t4 = (log2n - ((log2n & 1u) ? 7 : 8)) / 2;
    EXPECT_EQ(plan.tail_radix16_stages(), t4 / 2) << "log2n=" << log2n;
    EXPECT_EQ(plan.tail_radix4_stages(), t4 % 2) << "log2n=" << log2n;
    const auto x = random_vector(n, InputDistribution::kUniform, 3000 + log2n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const auto ref = oracle_transform(x, /*inverse=*/false);
      auto got = x;
      plan.forward(got.data());
      expect_bitwise_equal(got, ref, "small-window forward", n, b);
      const auto iref = oracle_transform(x, /*inverse=*/true);
      auto igot = x;
      plan.inverse(igot.data());
      expect_bitwise_equal(igot, iref, "small-window inverse", n, b);
    }
  }
}

// forward_bit_reversed over the bit-reversed input equals forward_copy of
// the natural input bitwise on every backend: odd and even log2n (radix-2
// and radix-4 openers read straight from the source), both sides of the
// COBRA threshold, and small-window plans whose schedules block and tail at
// these sizes. fft::Fft exposes the entry point exactly where it runs the
// in-place engine forward.
TEST(InplaceOptimized, BitReversedEntryEqualsForwardCopyBitwise) {
  BackendGuard guard;
  InplaceTuning small_window;
  small_window.block_log2 = 8;
  small_window.cobra_tile_bits = 4;
  small_window.cobra_min_log2 = 9;
  for (unsigned log2n = 1; log2n <= 14; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto x = random_vector(n, InputDistribution::kNormal, 4000 + log2n);
    const auto shared = InplaceRadix2Plan::get(n);
    const InplaceRadix2Plan tuned(n, small_window);
    for (const InplaceRadix2Plan* plan : {shared.get(), &tuned}) {
      const std::uint32_t* rev = plan->bit_reversal();
      std::vector<cplx> xr(n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rev[i], fft::reverse_bits(i, log2n)) << "n=" << n;
        xr[i] = x[rev[i]];
      }
      const auto staged = xr;
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        std::vector<cplx> want(n), got(n);
        plan->forward_copy(x.data(), want.data());
        plan->forward_bit_reversed(xr.data(), got.data());
        expect_bitwise_equal(got, want, "bit-reversed entry", n, b);
        expect_bitwise_equal(xr, staged, "bit-reversed source", n, b);
      }
    }
  }
  for (std::size_t n : {std::size_t{256}, std::size_t{512}, std::size_t{2048},
                        std::size_t{4096}}) {
    fft::Fft forward(n);
    EXPECT_EQ(forward.bit_reversal() != nullptr, fft::uses_inplace_engine(n))
        << "n=" << n;
    EXPECT_EQ(fft::Fft(n, fft::Direction::kInverse).bit_reversal(), nullptr);
    if (forward.bit_reversal() == nullptr) continue;
    const auto x = random_vector(n, InputDistribution::kUniform, 4100 + n);
    std::vector<cplx> xr(n), want(n), got(n);
    for (std::size_t i = 0; i < n; ++i) xr[i] = x[forward.bit_reversal()[i]];
    forward.execute(x.data(), want.data());
    forward.execute_bit_reversed(xr.data(), got.data());
    expect_bitwise_equal(got, want, "Fft::execute_bit_reversed", n,
                         simd::active_backend());
  }
}

// The default-tuned 2^20 plan must actually take the fast path: COBRA on and
// the whole-array tail a single radix-16 pass at the 2^16 window.
TEST(InplaceOptimized, DefaultPlanAt2_20UsesCobraAndFusedTail) {
  const auto plan = InplaceRadix2Plan::get(std::size_t{1} << 20);
  EXPECT_TRUE(plan->cobra_enabled());
  EXPECT_GE(plan->cobra_tile_bits(), 2u);
  EXPECT_EQ(plan->tail_radix16_stages(), 1u);
  EXPECT_EQ(plan->tail_radix4_stages(), 0u);
  // 2^18 keeps one radix-4 tail pass (levels 17..18 beyond the window).
  const auto plan18 = InplaceRadix2Plan::get(std::size_t{1} << 18);
  EXPECT_EQ(plan18->tail_radix16_stages(), 0u);
  EXPECT_EQ(plan18->tail_radix4_stages(), 1u);
}

TEST(InplaceOptimized, OptimizedPathMatchesReferenceDftAndRoundTrips) {
  BackendGuard guard;
  InplaceTuning tuning;
  tuning.block_log2 = 8;
  tuning.cobra_tile_bits = 4;
  tuning.cobra_min_log2 = 9;
  const std::size_t n = 1 << 14;  // COBRA + radix-16 + radix-4 tail
  const InplaceRadix2Plan plan(n, tuning);
  ASSERT_EQ(plan.tail_radix16_stages(), 1u);
  const auto x = random_vector(n, InputDistribution::kNormal, 55);
  std::vector<cplx> want(n);
  dft::reference_dft(x.data(), want.data(), n);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    auto y = x;
    plan.forward(y.data());
    EXPECT_LT(inf_diff(y.data(), want.data(), n),
              1e-9 * (1.0 + inf_norm(want.data(), n)))
        << simd::backend_name(b);
    plan.inverse(y.data());
    EXPECT_LT(inf_diff(y.data(), x.data(), n),
              1e-10 * (1.0 + inf_norm(x.data(), n)))
        << simd::backend_name(b);
  }
}

// ------------------------------------------------- fault campaign re-run

struct CampaignOutcome {
  bool threw = false;
  bool correct = false;
  std::size_t detected = 0;
  std::size_t corrected = 0;
  std::size_t retries = 0;

  bool operator==(const CampaignOutcome&) const = default;
};

CampaignOutcome run_one_campaign(int seed) {
  // 2^14 takes the COBRA + fused-opener path under the default tuning
  // (cobra_min_log2 = 12); the plan comes from the shared cache exactly as
  // production ABFT runs resolve it.
  constexpr std::size_t kN = std::size_t{1} << 14;
  Rng rng(71000 + seed);
  auto x = random_vector(kN, InputDistribution::kUniform, 72000 + seed);
  const auto want = fft::fft(x);
  const fault::Phase phases[] = {
      fault::Phase::kInputAfterChecksum, fault::Phase::kMFftOutput,
      fault::Phase::kIntermediate, fault::Phase::kKFftOutput,
      fault::Phase::kFinalOutput};
  const fault::Phase phase = phases[rng.below(5)];
  const bool unit_scoped = phase == fault::Phase::kMFftOutput ||
                           phase == fault::Phase::kKFftOutput;
  const std::size_t unit = unit_scoped ? rng.below(128) : 0;
  const std::size_t element = rng.below(unit_scoped ? 128 : kN);
  fault::Injector inj;
  inj.schedule(fault::FaultSpec::computational(
      phase, unit, element,
      {rng.uniform(0.5, 100.0), rng.uniform(-100.0, -0.5)}));
  abft::Options opts = abft::Options::online_opt(true);
  opts.injector = &inj;
  abft::Stats stats;
  CampaignOutcome out;
  try {
    abft::inplace_online_transform(x.data(), kN, opts, stats);
    out.correct = inf_diff(x.data(), want.data(), kN) < 1e-7;
  } catch (const UncorrectableError&) {
    out.threw = true;
  }
  out.detected = stats.comp_errors_detected + stats.mem_errors_detected;
  out.corrected = stats.mem_errors_corrected;
  out.retries = stats.sub_fft_retries;
  return out;
}

TEST(InplaceOptimized, FaultCampaignOnCobraPathIdenticalOnEveryBackend) {
  BackendGuard guard;
  ASSERT_TRUE(InplaceRadix2Plan::get(std::size_t{1} << 14)->cobra_enabled());
  constexpr int kSeeds = 12;
  std::vector<CampaignOutcome> ref;
  std::size_t total_detected = 0;
  ASSERT_TRUE(simd::set_backend(Backend::kScalar));
  for (int s = 0; s < kSeeds; ++s) {
    ref.push_back(run_one_campaign(s));
    EXPECT_TRUE(ref.back().threw || ref.back().correct) << "seed " << s;
    total_detected += ref.back().detected;
  }
  EXPECT_GE(total_detected, static_cast<std::size_t>(kSeeds) / 2);
  for (Backend b : available_backends()) {
    if (b == Backend::kScalar) continue;
    ASSERT_TRUE(simd::set_backend(b));
    for (int s = 0; s < kSeeds; ++s) {
      const CampaignOutcome got = run_one_campaign(s);
      EXPECT_EQ(got, ref[s])
          << "seed " << s << " backend=" << simd::backend_name(b)
          << " (threw=" << got.threw << " correct=" << got.correct
          << " detected=" << got.detected << " corrected=" << got.corrected
          << ")";
    }
  }
}

}  // namespace
}  // namespace ftfft
