#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/complex.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "dft/reference_dft.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using fft::Direction;
using fft::Fft;
using fft::InplaceRadix2Plan;
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

// Bitwise equality of got[j * stride] and want[j] for j < want.size().
void expect_bitwise_equal(const cplx* got, std::size_t stride,
                          const std::vector<cplx>& want, const char* what,
                          Backend b) {
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(std::memcmp(&got[j * stride], &want[j], sizeof(cplx)), 0)
        << what << " first divergence at j=" << j << " n=" << want.size()
        << " backend=" << simd::backend_name(b) << " got=" << got[j * stride]
        << " want=" << want[j];
  }
}

// Tolerance scaled to the transform: output magnitudes grow like sqrt(n) and
// the O(n^2) reference oracle itself accumulates ~n*eps error.
double tol_for(std::size_t n) { return 1e-11 * static_cast<double>(n); }

void expect_matches_reference(const std::vector<cplx>& want,
                              const std::vector<cplx>& got) {
  const double tol = tol_for(want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol)
        << "n=" << want.size() << " j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol)
        << "n=" << want.size() << " j=" << j;
  }
}

class FftSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSize, ForwardMatchesReference) {
  const std::size_t n = GetParam();
  BackendGuard guard;
  auto x = random_vector(n, InputDistribution::kUniform, 1000 + n);
  const auto want = dft::reference_dft(x);
  Fft engine(n);
  for (Backend b : available_backends()) {
    SCOPED_TRACE(simd::backend_name(b));
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> out(n);
    engine.execute(x.data(), out.data());
    expect_matches_reference(want, out);
  }
}

TEST_P(FftSize, InverseRoundTrips) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, InputDistribution::kNormal, 2000 + n);
  std::vector<cplx> freq(n), back(n);
  Fft fwd(n, Direction::kForward);
  Fft inv(n, Direction::kInverse);
  fwd.execute(x.data(), freq.data());
  inv.execute(freq.data(), back.data());
  const double tol = tol_for(n);
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_NEAR(back[t].real(), x[t].real(), tol) << "n=" << n;
    ASSERT_NEAR(back[t].imag(), x[t].imag(), tol) << "n=" << n;
  }
}

TEST_P(FftSize, InplaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, InputDistribution::kUniform, 3000 + n);
  std::vector<cplx> oop(n);
  Fft engine(n);
  engine.execute(x.data(), oop.data());
  std::vector<cplx> ip = x;
  engine.execute_inplace(ip.data());
  const double tol = tol_for(n);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(ip[j].real(), oop[j].real(), tol) << "n=" << n << " j=" << j;
    ASSERT_NEAR(ip[j].imag(), oop[j].imag(), tol) << "n=" << n << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwo, FftSize,
    ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                      4096),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

INSTANTIATE_TEST_SUITE_P(
    MixedRadix, FftSize,
    ::testing::Values(6, 12, 20, 60, 100, 120, 360, 1000, 1440, 2187, 3125),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

INSTANTIATE_TEST_SUITE_P(
    PrimesAndAwkward, FftSize,
    ::testing::Values(7, 17, 31, 37, 97, 101, 251, 509, 74, 202, 1111),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

// Power-of-two sizes from fft::kInplaceEngineMinSize up run on the cached
// InplaceRadix2Plan: every entry point must reproduce its bits exactly.
class FftInplaceEngine : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftInplaceEngine, ForwardIsForwardCopyBitwise) {
  const std::size_t n = GetParam();
  ASSERT_TRUE(fft::uses_inplace_engine(n));
  BackendGuard guard;
  const auto x = random_vector(n, InputDistribution::kNormal, 4000 + n);
  const auto plan = InplaceRadix2Plan::get(n);
  Fft engine(n);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> want(n), got(n);
    plan->forward_copy(x.data(), want.data());
    engine.execute(x.data(), got.data());
    expect_bitwise_equal(got.data(), 1, want, "execute", b);
    got = x;
    engine.execute_inplace(got.data());
    expect_bitwise_equal(got.data(), 1, want, "execute_inplace", b);
  }
}

TEST_P(FftInplaceEngine, StridedMatchesContiguousBitwise) {
  const std::size_t n = GetParam();
  BackendGuard guard;
  const auto x = random_vector(n, InputDistribution::kUniform, 5000 + n);
  const std::size_t is = 3;
  std::vector<cplx> in(n * is);
  for (std::size_t t = 0; t < n; ++t) in[t * is] = x[t];
  for (const Direction dir : {Direction::kForward, Direction::kInverse}) {
    Fft engine(n, dir);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> want(n);
      engine.execute(x.data(), want.data());
      for (const std::size_t os : {1ul, 2ul}) {
        std::vector<cplx> out(n * os);
        engine.execute_strided(in.data(), is, out.data(), os);
        expect_bitwise_equal(out.data(), os, want,
                             os == 1 ? "is=3 os=1" : "is=3 os=2", b);
      }
    }
  }
}

TEST_P(FftInplaceEngine, InverseIsPlanInverseBitwiseAndRoundTrips) {
  const std::size_t n = GetParam();
  BackendGuard guard;
  const auto x = random_vector(n, InputDistribution::kNormal, 6000 + n);
  const auto plan = InplaceRadix2Plan::get(n);
  Fft fwd(n, Direction::kForward);
  Fft inv(n, Direction::kInverse);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> freq(n), back(n);
    fwd.execute(x.data(), freq.data());
    std::vector<cplx> want = freq;
    plan->inverse(want.data());
    inv.execute(freq.data(), back.data());
    expect_bitwise_equal(back.data(), 1, want, "inverse", b);
    double err = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      err = std::max(err, std::abs(back[t] - x[t]));
    }
    EXPECT_LT(err, 1e-12 * static_cast<double>(log2_floor(n)))
        << "n=" << n << " backend=" << simd::backend_name(b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwo, FftInplaceEngine,
    ::testing::Values(512, 1024, 2048, 4096, 1 << 16, 1 << 18),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

TEST(Fft, OfflineProtectedOutputIsForwardCopyBitwise) {
  // The offline scheme verifies the plain transform's own output, so a clean
  // run returns exactly the in-place engine's bits.
  const std::size_t n = 1 << 18;
  BackendGuard guard;
  const auto x = random_vector(n, InputDistribution::kNormal, 7000);
  PlanConfig cfg;
  cfg.protection = Protection::kOffline;
  FtPlan plan(n, cfg);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> want(n);
    InplaceRadix2Plan::get(n)->forward_copy(x.data(), want.data());
    const auto got = plan.forward(x);
    expect_bitwise_equal(got.data(), 1, want, "offline FtPlan", b);
    EXPECT_EQ(plan.last_stats().comp_errors_detected, 0u);
  }
}

TEST(Fft, StridedExecutionMatches) {
  const std::size_t n = 256, is = 2, os = 3;
  auto packed = random_vector(n, InputDistribution::kUniform, 42);
  std::vector<cplx> in(n * is);
  for (std::size_t t = 0; t < n; ++t) in[t * is] = packed[t];
  std::vector<cplx> out(n * os);
  Fft engine(n);
  engine.execute_strided(in.data(), is, out.data(), os);
  const auto want = dft::reference_dft(packed);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(out[j * os].real(), want[j].real(), tol_for(n));
    ASSERT_NEAR(out[j * os].imag(), want[j].imag(), tol_for(n));
  }
}

TEST(Fft, ConvenienceWrappersRoundTrip) {
  auto x = random_vector(512, InputDistribution::kNormal, 50);
  const auto back = fft::ifft(fft::fft(x));
  for (std::size_t t = 0; t < x.size(); ++t) {
    ASSERT_NEAR(back[t].real(), x[t].real(), 1e-10);
    ASSERT_NEAR(back[t].imag(), x[t].imag(), 1e-10);
  }
}

TEST(InplaceRadix2, MatchesReferenceAcrossSizes) {
  for (std::size_t n = 1; n <= 4096; n *= 2) {
    auto x = random_vector(n, InputDistribution::kUniform, 60 + n);
    std::vector<cplx> data = x;
    fft::InplaceRadix2Plan::get(n)->forward(data.data());
    const auto want = dft::reference_dft(x);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(data[j].real(), want[j].real(), tol_for(n)) << "n=" << n;
      ASSERT_NEAR(data[j].imag(), want[j].imag(), tol_for(n)) << "n=" << n;
    }
  }
}

TEST(InplaceRadix2, InverseRoundTrips) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 70);
  std::vector<cplx> data = x;
  const auto plan = fft::InplaceRadix2Plan::get(n);
  plan->forward(data.data());
  plan->inverse(data.data());
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_NEAR(data[t].real(), x[t].real(), 1e-11);
    ASSERT_NEAR(data[t].imag(), x[t].imag(), 1e-11);
  }
}

TEST(InplaceRadix2, RejectsNonPowerOfTwo) {
  EXPECT_THROW(fft::InplaceRadix2Plan bad(12), std::invalid_argument);
}

TEST(Fft, LargeTransformSpotCheck) {
  // 2^16 is too big for the O(n^2) oracle; verify via a single tone whose
  // transform is analytically known.
  const std::size_t n = 1 << 16;
  const std::size_t bin = 12345;
  std::vector<cplx> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::conj(omega(n, static_cast<std::uint64_t>(bin) * t));
  std::vector<cplx> X(n);
  Fft engine(n);
  engine.execute(x.data(), X.data());
  EXPECT_NEAR(X[bin].real(), static_cast<double>(n), 1e-6);
  EXPECT_NEAR(X[bin].imag(), 0.0, 1e-6);
  double off_peak = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j != bin) off_peak = std::max(off_peak, std::abs(X[j]));
  }
  EXPECT_LT(off_peak, 1e-6);
}

}  // namespace
}  // namespace ftfft
