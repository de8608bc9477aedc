// SIMD backend coverage: every dispatched kernel must agree with the scalar
// reference on every compiled-in backend, across sizes 1..2^16, odd strides,
// the w == nullptr dual-sum path, the env/forcing dispatch machinery, and —
// most importantly — the fault-injection campaigns must detect and correct
// exactly the same faults no matter which backend runs the math.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/online.hpp"
#include "abft/options.hpp"
#include "checksum/dot.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dft/codelets.hpp"
#include "dft/reference_dft.hpp"
#include "fault/bitflip.hpp"
#include "fault/injector.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
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

/// Restores the entry backend when a test scope ends.
struct BackendGuard {
  Backend prev = simd::active_backend();
  ~BackendGuard() { simd::set_backend(prev); }
};

// Naive single-chain references, independent of the library's kernels.
cplx naive_weighted_sum(const cplx* w, const cplx* x, std::size_t n,
                        std::size_t stride = 1) {
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) acc += cmul(w[j], x[j * stride]);
  return acc;
}

double naive_energy(const cplx* x, std::size_t n, std::size_t stride = 1) {
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) acc += norm2(x[j * stride]);
  return acc;
}

constexpr std::size_t kSizes[] = {0,  1,  2,   3,   4,    5,    7,    8,
                                  15, 16, 31,  48,  64,   100,  127,  256,
                                  999, 1024, 4096, 65536};

// ------------------------------------------------------------- checksums

TEST(SimdChecksum, WeightedSumMatchesNaiveOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    auto x = random_vector(n, InputDistribution::kUniform, 101);
    auto w = random_vector(n, InputDistribution::kNormal, 102);
    const cplx want = naive_weighted_sum(w.data(), x.data(), n);
    const double scale = std::abs(want) + std::sqrt(naive_energy(x.data(), n));
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const cplx got = checksum::weighted_sum(w.data(), x.data(), n);
      EXPECT_LT(std::abs(got - want), 1e-11 * (1.0 + scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdChecksum, DualWeightedSumMatchesNaiveIncludingNullWeights) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    auto x = random_vector(n == 0 ? 1 : n, InputDistribution::kNormal, 202);
    std::vector<cplx> w(n == 0 ? 1 : n);
    Rng rng(17);
    for (auto& c : w) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (const cplx* wp : {static_cast<const cplx*>(w.data()),
                           static_cast<const cplx*>(nullptr)}) {
      checksum::DualSum want;
      for (std::size_t j = 0; j < n; ++j) {
        const cplx p = wp == nullptr ? x[j] : cmul(wp[j], x[j]);
        want.plain += p;
        want.indexed += static_cast<double>(j) * p;
      }
      const double scale =
          std::abs(want.indexed) + static_cast<double>(n) + 1.0;
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        const auto got = checksum::dual_weighted_sum(wp, x.data(), n);
        EXPECT_LT(std::abs(got.plain - want.plain), 1e-11 * scale)
            << "n=" << n << " backend=" << simd::backend_name(b);
        EXPECT_LT(std::abs(got.indexed - want.indexed), 1e-11 * scale)
            << "n=" << n << " backend=" << simd::backend_name(b);
      }
    }
  }
}

TEST(SimdChecksum, EnergyAndRobustVariantsMatchNaive) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    auto x = random_vector(n == 0 ? 1 : n, InputDistribution::kUniform, 303);
    // One large outlier: the energy and the plain sum must carry it.
    if (n >= 8) x[n / 3] = cplx{1e6, -2e6};
    const double e_all = naive_energy(x.data(), n);
    cplx plain{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) plain += x[j];
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      EXPECT_LT(std::abs(checksum::energy(x.data(), n) - e_all),
                1e-11 * (1.0 + e_all))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(checksum::plain_sum(x.data(), n) - plain),
                1e-11 * (1.0 + std::abs(plain)))
          << "n=" << n << " backend=" << name;
    }
  }
}

TEST(SimdChecksum, FusedSumEnergyAndOmega3MatchNaive) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    auto x = random_vector(n, InputDistribution::kNormal, 404);
    auto w = random_vector(n, InputDistribution::kUniform, 405);
    const cplx ws = naive_weighted_sum(w.data(), x.data(), n);
    const double e = naive_energy(x.data(), n);
    cplx o3{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) o3 += cmul(omega3_pow(j), x[j]);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      const auto se = checksum::weighted_sum_energy(w.data(), x.data(), n);
      EXPECT_LT(std::abs(se.sum - ws), 1e-11 * (1.0 + std::abs(ws) + e))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(se.energy - e), 1e-11 * (1.0 + e))
          << "n=" << n << " backend=" << name;
      const auto de =
          checksum::dual_weighted_sum_energy(nullptr, x.data(), n);
      EXPECT_LT(std::abs(de.energy - e), 1e-11 * (1.0 + e))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(checksum::omega3_weighted_sum(x.data(), n) - o3),
                1e-10 * (1.0 + std::abs(o3) + std::sqrt(e) * std::sqrt(n)))
          << "n=" << n << " backend=" << name;
    }
  }
}

TEST(SimdChecksum, OddStridesTakeTheScalarPathOnEveryBackend) {
  BackendGuard guard;
  const std::size_t n = 257;
  for (std::size_t stride : {2ul, 3ul, 5ul}) {
    auto x = random_vector(n * stride, InputDistribution::kUniform, 505);
    auto w = checksum::input_checksum_vector(n);
    const cplx want = naive_weighted_sum(w.data(), x.data(), n, stride);
    const double e = naive_energy(x.data(), n, stride);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      EXPECT_LT(std::abs(checksum::weighted_sum(w.data(), x.data(), n,
                                                stride) -
                         want),
                1e-11 * (1.0 + std::abs(want)))
          << "stride=" << stride;
      EXPECT_LT(std::abs(checksum::energy(x.data(), n, stride) - e),
                1e-11 * (1.0 + e))
          << "stride=" << stride;
    }
  }
}

TEST(SimdChecksum, CopyDualSumEnergyMatchesEnergy) {
  // The transpose copy carries the message's dual sums and the energy that
  // scales its threshold: the sums must be exactly the separate sweep's,
  // the energy that of checksum::energy, on every backend and odd tail.
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    const auto x =
        random_vector(n == 0 ? 1 : n, InputDistribution::kNormal, 707);
    std::vector<cplx> dst(x.size()), dst2(x.size());
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      double e = -1.0;
      const auto got = checksum::copy_dual_sum(dst.data(), x.data(), n, &e);
      const auto want = checksum::dual_weighted_sum(nullptr, x.data(), n);
      EXPECT_EQ(std::memcmp(dst.data(), x.data(), n * sizeof(cplx)), 0)
          << "n=" << n << " backend=" << name;
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
          << "n=" << n << " backend=" << name;
      const double e_want = checksum::energy(x.data(), n);
      EXPECT_LE(std::abs(e - e_want), 1e-15 * e_want)
          << "n=" << n << " backend=" << name;
      const auto bare = checksum::copy_dual_sum(dst2.data(), x.data(), n);
      EXPECT_EQ(std::memcmp(&bare, &want, sizeof(bare)), 0)
          << "n=" << n << " backend=" << name;
      EXPECT_EQ(std::memcmp(dst2.data(), x.data(), n * sizeof(cplx)), 0)
          << "n=" << n << " backend=" << name;
    }
  }
}

TEST(SimdChecksum, WeightedSumEnergyAtSumsTheGatheredStreamBitwise) {
  // A staged sub-FFT input held in bit-reversed order is summed in natural
  // order through the index table: bitwise the unit-stride sweep over the
  // gathered copy, whose sum is also weighted_sum's, on every backend.
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    const auto x = random_vector(n, InputDistribution::kNormal, 808 + n);
    const auto w = random_vector(n, InputDistribution::kUniform, 909 + n);
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::uint32_t>(
          is_pow2(n) ? fft::reverse_bits(i, log2_floor(n)) : n - 1 - i);
    }
    std::vector<cplx> gathered(n);
    for (std::size_t i = 0; i < n; ++i) gathered[i] = x[idx[i]];
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      const auto got =
          checksum::weighted_sum_energy_at(w.data(), x.data(), idx.data(), n);
      const auto want =
          checksum::weighted_sum_energy(w.data(), gathered.data(), n);
      const cplx sum = checksum::weighted_sum(w.data(), gathered.data(), n);
      EXPECT_EQ(std::memcmp(&got.sum, &want.sum, sizeof(cplx)), 0)
          << "n=" << n << " backend=" << name;
      EXPECT_EQ(std::memcmp(&got.sum, &sum, sizeof(cplx)), 0)
          << "n=" << n << " backend=" << name;
      EXPECT_EQ(std::memcmp(&got.energy, &want.energy, sizeof(double)), 0)
          << "n=" << n << " backend=" << name;
    }
  }
}

// The slot fold loop of the CMCG and of the online, in-place and sharded
// column sums, as each site ran it before the fold_row kernel: the oracle the
// kernel must equal bitwise. Every product is rounded before its add, as the
// baseline-ISA build of those loops did; GCC is told not to contract here on
// targets whose baseline has FMA.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
void loop_fold_row(const cplx* row, std::size_t width, const cplx* w,
                   double r, cplx* a1, cplx* a2, double* e) {
  for (std::size_t i = 0; i < width; ++i) {
    const cplx p = w != nullptr ? cmul(*w, row[i]) : row[i];
    a1[i] += p;
    a2[i] += r * p;
    e[i] += norm2(row[i]);
  }
}

/// n values with both signs of zero mixed into either component.
std::vector<cplx> signed_zero_mix(std::size_t n, std::uint64_t seed) {
  auto x = random_vector(n, InputDistribution::kNormal, seed);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 1: x[i] = {0.0, x[i].imag()}; break;
      case 2: x[i] = {x[i].real(), -0.0}; break;
      case 3: x[i] = {-0.0, (i % 2 == 0) ? 0.0 : -0.0}; break;
      default: break;
    }
  }
  return x;
}

TEST(SimdChecksum, FoldRowMatchesScalarLoopBitwise) {
  BackendGuard guard;
  const cplx weights[] = {cplx{0.7, -1.3}, cplx{1.0, 0.0}, cplx{-0.0, 2.5}};
  for (std::size_t width = 1; width <= 67; ++width) {
    const auto row = signed_zero_mix(width, 1100 + width);
    const auto acc = signed_zero_mix(2 * width, 1200 + width);
    std::vector<double> e0(width);
    for (std::size_t i = 0; i < width; ++i) {
      e0[i] = (i % 3 == 0) ? -0.0 : norm2(acc[i]);
    }
    for (const double r : {0.0, 4095.0}) {
      for (const cplx* w : {static_cast<const cplx*>(nullptr), &weights[0],
                            &weights[1], &weights[2]}) {
        std::vector<cplx> w1(acc.begin(), acc.begin() + width);
        std::vector<cplx> w2(acc.begin() + width, acc.end());
        std::vector<double> we = e0;
        loop_fold_row(row.data(), width, w, r, w1.data(), w2.data(),
                      we.data());
        for (Backend b : available_backends()) {
          ASSERT_TRUE(simd::set_backend(b));
          std::vector<cplx> g1(acc.begin(), acc.begin() + width);
          std::vector<cplx> g2(acc.begin() + width, acc.end());
          std::vector<double> ge = e0;
          checksum::fold_row(row.data(), width, w, r, g1.data(), g2.data(),
                             ge.data());
          const std::string where =
              "width=" + std::to_string(width) + " r=" + std::to_string(r) +
              " w=" + (w == nullptr ? std::string("null")
                                    : std::to_string(w - weights)) +
              " backend=" + simd::backend_name(b);
          EXPECT_EQ(std::memcmp(g1.data(), w1.data(), width * sizeof(cplx)),
                    0)
              << where;
          EXPECT_EQ(std::memcmp(g2.data(), w2.data(), width * sizeof(cplx)),
                    0)
              << where;
          EXPECT_EQ(std::memcmp(ge.data(), we.data(), width * sizeof(double)),
                    0)
              << where;
        }
      }
    }
  }
}

TEST(SimdChecksum, PlainSumKernelMatchesFourChainLoop) {
  // The stride-1 kernel keeps the strided loop's four chains lane by lane,
  // so the in-place permutation guard and the online column MCV sum in the
  // same order whatever the stride or backend.
  BackendGuard guard;
  for (std::size_t n = 0; n <= 67; ++n) {
    const auto x = signed_zero_mix(n == 0 ? 1 : n, 1300 + n);
    cplx acc[4] = {};
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      for (std::size_t u = 0; u < 4; ++u) acc[u] += x[j + u];
    }
    for (; j < n; ++j) acc[0] += x[j];
    const cplx want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    std::vector<cplx> spread(2 * x.size());
    for (std::size_t i = 0; i < x.size(); ++i) spread[2 * i] = x[i];
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const cplx got = checksum::plain_sum(x.data(), n);
      const cplx strided = checksum::plain_sum(spread.data(), n, 2);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(cplx)), 0)
          << "n=" << n << " backend=" << simd::backend_name(b);
      EXPECT_EQ(std::memcmp(&strided, &want, sizeof(cplx)), 0)
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdChecksum, BackendResultsAreDeterministic) {
  BackendGuard guard;
  const std::size_t n = 4099;
  auto x = random_vector(n, InputDistribution::kNormal, 606);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    const auto a = checksum::dual_weighted_sum(nullptr, x.data(), n);
    const auto c = checksum::dual_weighted_sum(nullptr, x.data(), n);
    EXPECT_EQ(std::memcmp(&a, &c, sizeof(a)), 0)
        << simd::backend_name(b) << " not bit-stable across calls";
  }
}

// ------------------------------------------------------------------ FFT

double fft_tolerance(std::size_t n, double scale) {
  return 1e-12 * (std::log2(static_cast<double>(n) + 2.0) + 1.0) *
         (scale + 1.0);
}

TEST(SimdFft, InplaceForwardAgreesAcrossBackendsUpTo64k) {
  BackendGuard guard;
  for (std::size_t n = 1; n <= (1u << 16); n *= 2) {
    auto x = random_vector(n, InputDistribution::kUniform, 707);
    const auto plan = fft::InplaceRadix2Plan::get(n);
    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    auto ref = x;
    plan->forward(ref.data());
    const double scale = inf_norm(ref.data(), n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      auto y = x;
      plan->forward(y.data());
      EXPECT_LT(inf_diff(y.data(), ref.data(), n), fft_tolerance(n, scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
      // Round trip through the same backend's inverse.
      plan->inverse(y.data());
      EXPECT_LT(inf_diff(y.data(), x.data(), n),
                fft_tolerance(n, inf_norm(x.data(), n)))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, InplaceMatchesReferenceDftOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul, 256ul, 1024ul}) {
    auto x = random_vector(n, InputDistribution::kNormal, 808);
    std::vector<cplx> want(n);
    dft::reference_dft(x.data(), want.data(), n);
    const auto plan = fft::InplaceRadix2Plan::get(n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      auto y = x;
      plan->forward(y.data());
      EXPECT_LT(inf_diff(y.data(), want.data(), n),
                1e-9 * (1.0 + inf_norm(want.data(), n)))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, OutOfPlaceExecutorAgreesAcrossBackends) {
  BackendGuard guard;
  // Covers vectorized combines (r = 2/4/8/16), scalar combines (r = 3/5),
  // leaf codelets, generic codelets, and Bluestein; 12288 = 3 * 2^12 keeps
  // a large-m vectorized combine on the recursive executor now that
  // powers of two from 512 up run on the in-place engine.
  for (std::size_t n : {4ul, 8ul, 16ul, 30ul, 48ul, 60ul, 100ul, 240ul,
                        1024ul, 4096ul, 4099ul, 12288ul, 65536ul}) {
    auto x = random_vector(n, InputDistribution::kUniform, 909);
    fft::Fft engine(n);
    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    std::vector<cplx> ref(n);
    engine.execute(x.data(), ref.data());
    const double scale = inf_norm(ref.data(), n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> out(n);
      engine.execute(x.data(), out.data());
      EXPECT_LT(inf_diff(out.data(), ref.data(), n), fft_tolerance(n, scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, StridedCodeletsAgreeWithGenericOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : {4ul, 8ul, 16ul}) {
    for (std::size_t is : {1ul, 3ul, 257ul}) {
      auto x = random_vector(n * is, InputDistribution::kNormal, 111);
      std::vector<cplx> want(n);
      dft::generic_dft(n, x.data(), is, want.data(), 1);
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        std::vector<cplx> got(n);
        dft::codelet_dft(n, x.data(), is, got.data(), 1);
        EXPECT_LT(inf_diff(got.data(), want.data(), n),
                  1e-11 * (1.0 + inf_norm(want.data(), n)))
            << "n=" << n << " is=" << is
            << " backend=" << simd::backend_name(b);
        // Strided output bypasses the vector leaf and must still match.
        std::vector<cplx> strided(2 * n);
        dft::codelet_dft(n, x.data(), is, strided.data(), 2);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_LT(std::abs(strided[2 * k] - want[k]),
                    1e-11 * (1.0 + inf_norm(want.data(), n)));
        }
      }
    }
  }
}

// --------------------------------------------------------------- dispatch

TEST(SimdDispatch, ParseBackendRecognizesExactlyTheThreeNames) {
  Backend b = Backend::kScalar;
  EXPECT_TRUE(simd::detail::parse_backend("scalar", b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(simd::detail::parse_backend("avx2", b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_TRUE(simd::detail::parse_backend("neon", b));
  EXPECT_EQ(b, Backend::kNeon);
  EXPECT_FALSE(simd::detail::parse_backend("auto", b));
  EXPECT_FALSE(simd::detail::parse_backend("AVX2", b));
  EXPECT_FALSE(simd::detail::parse_backend("", b));
  EXPECT_FALSE(simd::detail::parse_backend(nullptr, b));
}

TEST(SimdDispatch, EnvOverrideResolvesAndFallsBackGracefully) {
  BackendGuard guard;
  ASSERT_EQ(setenv("FTFFT_SIMD", "scalar", 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), Backend::kScalar);
  ASSERT_EQ(setenv("FTFFT_SIMD", "definitely-not-a-backend", 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
  // Requesting a backend that is not available must fall back to detection
  // instead of crashing. At least one of avx2/neon is absent everywhere.
  const char* missing =
      simd::backend_available(Backend::kAvx2) ? "neon" : "avx2";
  ASSERT_EQ(setenv("FTFFT_SIMD", missing, 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
  ASSERT_EQ(unsetenv("FTFFT_SIMD"), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
}

TEST(SimdDispatch, SetBackendForcesEveryAvailableBackend) {
  BackendGuard guard;
  for (Backend b : available_backends()) {
    EXPECT_TRUE(simd::set_backend(b));
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::simd_backend_name(), simd::backend_name(b));
  }
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (simd::backend_available(b)) continue;
    const Backend before = simd::active_backend();
    EXPECT_FALSE(simd::set_backend(b));
    EXPECT_EQ(simd::active_backend(), before);
  }
}

// ------------------------------------------------- fault campaigns (table 1)

struct CampaignOutcome {
  bool threw = false;
  bool correct = false;
  std::size_t detected = 0;   // comp + mem detections
  std::size_t corrected = 0;  // mem corrections
  std::size_t retries = 0;    // sub-FFT re-executions

  bool operator==(const CampaignOutcome&) const = default;
};

CampaignOutcome run_one_campaign(int seed, bool inplace) {
  constexpr std::size_t kN = 1024;
  Rng rng(91000 + seed);
  auto x = random_vector(kN, InputDistribution::kUniform, 92000 + seed);
  const auto want = fft::fft(x);
  const fault::Phase phases[] = {
      fault::Phase::kInputAfterChecksum, fault::Phase::kMFftOutput,
      fault::Phase::kIntermediate, fault::Phase::kKFftOutput,
      fault::Phase::kFinalOutput};
  const fault::Phase phase = phases[rng.below(5)];
  const bool unit_scoped = phase == fault::Phase::kMFftOutput ||
                           phase == fault::Phase::kKFftOutput;
  const std::size_t unit = unit_scoped ? rng.below(32) : 0;
  const std::size_t element = rng.below(unit_scoped ? 32 : kN);
  fault::Injector inj;
  inj.schedule(fault::FaultSpec::computational(
      phase, unit, element,
      {rng.uniform(0.5, 100.0), rng.uniform(-100.0, -0.5)}));
  abft::Options opts = abft::Options::online_opt(true);
  opts.injector = &inj;
  abft::Stats stats;
  CampaignOutcome out;
  try {
    if (inplace) {
      abft::inplace_online_transform(x.data(), kN, opts, stats);
      out.correct = inf_diff(x.data(), want.data(), kN) < 1e-8;
    } else {
      std::vector<cplx> y(kN);
      abft::online_transform(x.data(), y.data(), kN, opts, stats);
      out.correct = inf_diff(y.data(), want.data(), kN) < 1e-8;
    }
  } catch (const UncorrectableError&) {
    out.threw = true;
  }
  out.detected = stats.comp_errors_detected + stats.mem_errors_detected;
  out.corrected = stats.mem_errors_corrected;
  out.retries = stats.sub_fft_retries;
  return out;
}

TEST(SimdFaultCampaigns, DetectionAndCorrectionIdenticalOnEveryBackend) {
  BackendGuard guard;
  // Table-1 style campaign: random single computational faults across
  // phases. Every backend must produce the exact same per-seed outcome
  // (survived/threw, detected and corrected counters) as the scalar
  // reference — vectorization must not change what the scheme catches.
  constexpr int kSeeds = 20;
  std::vector<CampaignOutcome> ref;
  std::size_t total_detected = 0;
  ASSERT_TRUE(simd::set_backend(Backend::kScalar));
  for (int s = 0; s < kSeeds; ++s) {
    ref.push_back(run_one_campaign(s, (s % 2) == 0));
    EXPECT_TRUE(ref.back().threw || ref.back().correct) << "seed " << s;
    total_detected += ref.back().detected;
  }
  // The campaign injects real faults; a healthy run detects most of them.
  EXPECT_GE(total_detected, static_cast<std::size_t>(kSeeds) / 2);
  for (Backend b : available_backends()) {
    if (b == Backend::kScalar) continue;
    ASSERT_TRUE(simd::set_backend(b));
    for (int s = 0; s < kSeeds; ++s) {
      const CampaignOutcome got = run_one_campaign(s, (s % 2) == 0);
      EXPECT_EQ(got, ref[s])
          << "seed " << s << " backend=" << simd::backend_name(b)
          << " (threw=" << got.threw << " correct=" << got.correct
          << " detected=" << got.detected << " corrected=" << got.corrected
          << ")";
    }
  }
}

TEST(SimdFaultCampaigns, FaultFreeRunsStayCleanOnEveryBackend) {
  BackendGuard guard;
  constexpr std::size_t kN = 4096;
  auto x = random_vector(kN, InputDistribution::kNormal, 333);
  const auto want = fft::fft(x);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> y(kN);
    abft::Stats stats;
    abft::online_transform(x.data(), y.data(), kN,
                           abft::Options::online_opt(true), stats);
    EXPECT_LT(inf_diff(y.data(), want.data(), kN), 1e-8)
        << simd::backend_name(b);
    EXPECT_EQ(stats.comp_errors_detected, 0u) << simd::backend_name(b);
    EXPECT_EQ(stats.mem_errors_detected, 0u) << simd::backend_name(b);
  }
}

}  // namespace
}  // namespace ftfft
