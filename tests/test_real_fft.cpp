// Real-input transforms (fft/real_fft.hpp): half-spectrum correctness
// against an independent real DFT, round-trip bit-stability, bitwise
// backend agreement of the packed pipeline, the strided gather fallback,
// edge-bin structure, and the "real-plan" cache row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/real_fft.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

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

// Single-chain naive real DFT of bin k — independent of every library
// kernel; only affordable for small n.
cplx naive_real_dft_bin(const std::vector<double>& x, std::size_t k) {
  const std::size_t n = x.size();
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = -2.0 * M_PI * static_cast<double>(k) *
                       static_cast<double>(j) / static_cast<double>(n);
    acc += x[j] * cplx{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

TEST(RealFft, MatchesNaiveRealDftSmallSizes) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 1024u}) {
    const auto x = random_signal(n, 1000 + n);
    std::vector<cplx> spec(n / 2 + 1);
    fft::r2c(x.data(), n, spec.data());
    double scale = 0.0;
    for (double v : x) scale += std::fabs(v);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const cplx want = naive_real_dft_bin(x, k);
      EXPECT_LT(std::abs(spec[k] - want), 1e-11 * (1.0 + scale))
          << "n=" << n << " k=" << k;
    }
  }
}

// Large sizes (up to 2^20, the headline bench range): the half-spectrum
// must match the library's same-length complex forward transform of the
// real signal — a different code path (mixed-radix executor) sharing no
// post-pass with r2c.
TEST(RealFft, MatchesComplexTransformLargeSizes) {
  for (std::size_t n : {4096u, 65536u, 1u << 20}) {
    const auto x = random_signal(n, 2000 + n);
    std::vector<cplx> full(n);
    for (std::size_t j = 0; j < n; ++j) full[j] = cplx{x[j], 0.0};
    const auto want = fft::fft(full);
    std::vector<cplx> spec(n / 2 + 1);
    fft::r2c(x.data(), n, spec.data());
    double worst = 0.0;
    for (std::size_t k = 0; k <= n / 2; ++k) {
      worst = std::max(worst, std::abs(spec[k] - want[k]));
    }
    const double scale = std::sqrt(static_cast<double>(n));
    EXPECT_LT(worst, 1e-10 * scale) << "n=" << n;
  }
}

TEST(RealFft, HermitianEdgeBinsAreExactlyReal) {
  for (std::size_t n : {2u, 4u, 16u, 256u, 4096u}) {
    const auto x = random_signal(n, 3000 + n);
    std::vector<cplx> spec(n / 2 + 1);
    fft::r2c(x.data(), n, spec.data());
    EXPECT_EQ(spec[0].imag(), 0.0) << "n=" << n;
    EXPECT_EQ(spec[n / 2].imag(), 0.0) << "n=" << n;
  }
}

TEST(RealFft, RoundTripIsAccurateAndBitStable) {
  for (std::size_t n : {2u, 4u, 8u, 64u, 1024u, 65536u}) {
    const auto x = random_signal(n, 4000 + n);
    std::vector<cplx> spec(n / 2 + 1);
    std::vector<double> back(n), back2(n);
    fft::r2c(x.data(), n, spec.data());
    fft::c2r(spec.data(), n, back.data());
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, std::fabs(back[j] - x[j]));
    }
    EXPECT_LT(worst, 1e-12 * std::sqrt(static_cast<double>(n))) << "n=" << n;
    // Repeating the round trip must reproduce identical bits: both passes
    // are deterministic functions of their inputs.
    std::vector<cplx> spec2(n / 2 + 1);
    fft::r2c(back.data(), n, spec2.data());
    fft::c2r(spec2.data(), n, back2.data());
    std::vector<cplx> spec3(n / 2 + 1);
    std::vector<double> back3(n);
    fft::r2c(back.data(), n, spec3.data());
    fft::c2r(spec3.data(), n, back3.data());
    EXPECT_EQ(0, std::memcmp(spec2.data(), spec3.data(),
                             spec2.size() * sizeof(cplx)))
        << "n=" << n;
    EXPECT_EQ(0, std::memcmp(back2.data(), back3.data(), n * sizeof(double)))
        << "n=" << n;
  }
}

// The new split/unsplit post-pass kernels are FMA-free by construction
// (vector remainders route through the pinned scalar TU, complex products
// use the exact addsub schoolbook form), so given the SAME packed spectrum
// their outputs must be bitwise identical on every compiled-in backend —
// unlike the butterfly kernels, which the library only holds to
// tolerance-level cross-backend agreement.
TEST(RealFft, PostPassKernelsBitwiseIdenticalAcrossBackends) {
  BackendGuard guard;
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 256u, 1024u, 8192u}) {
    const std::size_t nc = n / 2;
    const auto plan = fft::RealFftPlan::get(n);
    const cplx* wq = plan->quarter_twiddles();
    const auto z = random_vector(nc, InputDistribution::kNormal, 5000 + n);
    const auto h = random_vector(nc + 1, InputDistribution::kNormal, 5500 + n);

    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    std::vector<cplx> want_fin(nc + 1), want_prep(nc), want_prep_cj(nc);
    simd::fft_kernels().r2c_finalize(want_fin.data(), z.data(), nc, wq);
    if (nc > 0) {
      simd::fft_kernels().c2r_prepare(want_prep.data(), h.data(), nc, wq,
                                      false);
      simd::fft_kernels().c2r_prepare(want_prep_cj.data(), h.data(), nc, wq,
                                      true);
    }
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> fin(nc + 1), prep(nc), prep_cj(nc);
      simd::fft_kernels().r2c_finalize(fin.data(), z.data(), nc, wq);
      EXPECT_EQ(0, std::memcmp(fin.data(), want_fin.data(),
                               fin.size() * sizeof(cplx)))
          << "r2c_finalize n=" << n << " backend=" << simd::backend_name(b);
      if (nc == 0) continue;
      simd::fft_kernels().c2r_prepare(prep.data(), h.data(), nc, wq, false);
      simd::fft_kernels().c2r_prepare(prep_cj.data(), h.data(), nc, wq, true);
      EXPECT_EQ(0, std::memcmp(prep.data(), want_prep.data(),
                               nc * sizeof(cplx)))
          << "c2r_prepare n=" << n << " backend=" << simd::backend_name(b);
      EXPECT_EQ(0, std::memcmp(prep_cj.data(), want_prep_cj.data(),
                               nc * sizeof(cplx)))
          << "c2r_prepare(conj) n=" << n
          << " backend=" << simd::backend_name(b);
    }
  }
}

// Full-pipeline cross-backend agreement: the packed butterflies only agree
// to round-off across backends, so the end-to-end transform is held to the
// same tolerance — plus bitwise determinism of repeated calls per backend.
TEST(RealFft, PipelineAgreesAcrossBackends) {
  BackendGuard guard;
  for (std::size_t n : {2u, 16u, 128u, 2048u, 16384u}) {
    const auto x = random_signal(n, 6000 + n);
    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    std::vector<cplx> want_spec(n / 2 + 1);
    std::vector<double> want_back(n);
    fft::r2c(x.data(), n, want_spec.data());
    fft::c2r(want_spec.data(), n, want_back.data());
    double scale = 0.0;
    for (const cplx& v : want_spec) scale = std::max(scale, std::abs(v));
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> spec(n / 2 + 1), spec2(n / 2 + 1);
      std::vector<double> back(n);
      fft::r2c(x.data(), n, spec.data());
      fft::r2c(x.data(), n, spec2.data());
      fft::c2r(spec.data(), n, back.data());
      EXPECT_EQ(0, std::memcmp(spec.data(), spec2.data(),
                               spec.size() * sizeof(cplx)))
          << "r2c not bit-stable, n=" << n
          << " backend=" << simd::backend_name(b);
      double worst = 0.0;
      for (std::size_t k = 0; k <= n / 2; ++k) {
        worst = std::max(worst, std::abs(spec[k] - want_spec[k]));
      }
      EXPECT_LT(worst, 1e-12 * (scale + 1.0))
          << "n=" << n << " backend=" << simd::backend_name(b);
      double worst_back = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        worst_back = std::max(worst_back, std::fabs(back[j] - want_back[j]));
      }
      EXPECT_LT(worst_back, 1e-12 * (scale / std::max<double>(n, 1) + 1.0))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(RealFft, StridedGatherMatchesCompactedBitwise) {
  for (std::size_t n : {2u, 8u, 64u, 1024u}) {
    for (std::size_t stride : {2u, 3u, 7u}) {
      const auto wide = random_signal(n * stride, 6000 + n * stride);
      std::vector<double> compact(n);
      for (std::size_t j = 0; j < n; ++j) compact[j] = wide[j * stride];
      const auto plan = fft::RealFftPlan::get(n);
      std::vector<cplx> a(n / 2 + 1), b(n / 2 + 1);
      plan->r2c_strided(wide.data(), stride, a.data());
      plan->r2c(compact.data(), b.data());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)))
          << "n=" << n << " stride=" << stride;
    }
  }
}

TEST(RealFft, C2rIgnoresEdgeBinImaginaryParts) {
  const std::size_t n = 256;
  const auto x = random_signal(n, 77);
  std::vector<cplx> spec(n / 2 + 1);
  fft::r2c(x.data(), n, spec.data());
  std::vector<double> clean(n), dirty(n);
  fft::c2r(spec.data(), n, clean.data());
  spec[0] += cplx{0.0, 123.0};
  spec[n / 2] += cplx{0.0, -7.5};
  fft::c2r(spec.data(), n, dirty.data());
  EXPECT_EQ(0, std::memcmp(clean.data(), dirty.data(), n * sizeof(double)));
}

TEST(RealFft, RejectsInvalidSizes) {
  std::vector<cplx> spec(8);
  std::vector<double> x(8, 0.0);
  for (std::size_t n : {0u, 1u, 3u, 6u, 12u}) {
    EXPECT_THROW(fft::RealFftPlan plan(n), std::invalid_argument) << n;
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

TEST(RealFft, PlanCacheRowAndBuildCount) {
  // A size no other test in this binary uses, so the first get() is a miss.
  const std::size_t n = 1u << 9;
  const auto builds0 = cache_row("real-plan").misses;
  const auto p1 = fft::RealFftPlan::get(n);
  const auto p2 = fft::RealFftPlan::get(n);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_GE(cache_row("real-plan").misses, builds0);
  // Repeated resolution is a pure cache hit.
  const auto builds1 = cache_row("real-plan").misses;
  (void)fft::RealFftPlan::get(n);
  EXPECT_EQ(cache_row("real-plan").misses, builds1);
  EXPECT_GE(cache_row("real-plan").size, 1u);
}

}  // namespace
}  // namespace ftfft
