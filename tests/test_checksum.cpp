#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <vector>

#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"

namespace ftfft {
namespace {

using checksum::DualSum;

TEST(CompWeights, CyclesThroughCubeRoots) {
  const auto r = checksum::comp_weights(10);
  ASSERT_EQ(r.size(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    const cplx want = omega3_pow(j);
    EXPECT_EQ(r[j], want) << j;
  }
}

// (rA)_t = sum_s omega3^s omega_n^(s*t), summed directly in long double over
// a long-double twiddle table. Its own error is O(n * 1e-19), far below the
// double-precision generator's.
std::vector<std::complex<long double>> ra_long_double(std::size_t n) {
  using cl = std::complex<long double>;
  const long double pi = 3.141592653589793238462643383279502884L;
  std::vector<cl> w(n);
  for (std::size_t j = 0; j < n; ++j) {
    const long double ang = -2.0L * pi * static_cast<long double>(j) /
                            static_cast<long double>(n);
    w[j] = {std::cos(ang), std::sin(ang)};
  }
  const long double h3 = std::sqrt(3.0L) / 2;
  const cl w3[3] = {{1.0L, 0.0L}, {-0.5L, -h3}, {-0.5L, h3}};
  std::vector<cl> ra(n);
  for (std::size_t t = 0; t < n; ++t) {
    cl acc{0, 0};
    for (std::size_t s = 0; s < n; ++s) acc += w3[s % 3] * w[s * t % n];
    ra[t] = acc;
  }
  return ra;
}

// Every entry, the poles near t = n/3 and 2n/3 included (|rA_t| reaches
// O(n) there), is within a few ulps of the exact value.
TEST(InputChecksumVector, MatchesLongDoubleSummationAtEveryIndex) {
  for (std::size_t n : {4, 8, 100, 250, 512, 1000, 4096}) {
    const auto ra = checksum::input_checksum_vector(n);
    ASSERT_EQ(ra.size(), n);
    const auto want = ra_long_double(n);
    double worst = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const std::complex<long double> got{ra[t].real(), ra[t].imag()};
      worst = std::max(worst, static_cast<double>(std::abs(got - want[t]) /
                                                  std::abs(want[t])));
    }
    EXPECT_LE(worst, 1e-13) << "n=" << n;
  }
}

// Two evaluations of the direct sum (rA)_t = sum_s omega3^s omega_n^(s*t):
// `naive` adds the n terms in double with the library's twiddles; `closed`
// sums the geometric series, (1 - omega3^n) / (1 - omega3 omega_n^t), in long
// double. Neither shares code with the generator.
enum class RaReference : int { kNaiveSum, kGeometricSeries };

cplx ra_reference(RaReference how, std::size_t n, std::size_t t) {
  if (how == RaReference::kNaiveSum) {
    cplx acc{0, 0};
    for (std::size_t s = 0; s < n; ++s) acc += omega3_pow(s) * omega(n, s * t);
    return acc;
  }
  using cl = std::complex<long double>;
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double h3 = std::sqrt(3.0L) / 2;
  const cl w3[3] = {{1.0L, 0.0L}, {-0.5L, -h3}, {-0.5L, h3}};
  const long double ang =
      -2.0L * pi * static_cast<long double>(t) / static_cast<long double>(n);
  const cl wt{std::cos(ang), std::sin(ang)};
  const cl r = (cl{1.0L, 0.0L} - w3[n % 3]) / (cl{1.0L, 0.0L} - w3[1] * wt);
  return {static_cast<double>(r.real()), static_cast<double>(r.imag())};
}

class RaMethod : public ::testing::TestWithParam<RaReference> {};

TEST_P(RaMethod, MatchesDirectSummation) {
  for (std::size_t n : {4, 8, 16, 32, 100, 128, 250}) {
    const auto ra = checksum::input_checksum_vector(n);
    ASSERT_EQ(ra.size(), n);
    for (std::size_t t = 0; t < n; t += (n > 32 ? 17 : 1)) {
      const cplx want = ra_reference(GetParam(), n, t);
      // Entries reach O(n) at the poles; the tolerance scales with them.
      const double tol = 1e-11 * (1.0 + std::abs(want));
      EXPECT_NEAR(ra[t].real(), want.real(), tol) << "n=" << n << " t=" << t;
      EXPECT_NEAR(ra[t].imag(), want.imag(), tol) << "n=" << n << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothMethods, RaMethod,
                         ::testing::Values(RaReference::kNaiveSum,
                                           RaReference::kGeometricSeries),
                         [](const ::testing::TestParamInfo<RaReference>& pi) {
                           return pi.param == RaReference::kNaiveSum
                                      ? "naive"
                                      : "closed";
                         });

// The three ways to obtain rA (plain generation, DMR generation with its
// vote, the shared per-n cache) hand out bitwise-identical vectors.
TEST(InputChecksumVector, MethodsAgree) {
  const std::size_t n = 1 << 12;
  const auto plain = checksum::input_checksum_vector(n);
  const auto dmr = checksum::input_checksum_vector_dmr(n);
  const auto shared = checksum::shared_input_checksum_vector(n);
  ASSERT_EQ(dmr.size(), n);
  ASSERT_EQ(shared->size(), n);
  for (std::size_t t = 0; t < n; ++t) {
    EXPECT_EQ(dmr[t], plain[t]) << t;
    EXPECT_EQ((*shared)[t], plain[t]) << t;
  }
}

TEST(InputChecksumVector, RejectsMultiplesOfThree) {
  EXPECT_THROW(checksum::input_checksum_vector(9),
               std::invalid_argument);
  EXPECT_THROW(checksum::input_checksum_vector(12),
               std::invalid_argument);
  EXPECT_THROW(checksum::input_checksum_vector(0),
               std::invalid_argument);
}

TEST(InputChecksumVector, AbftIdentityHolds) {
  // The load-bearing property: (rA) x == r X for X = DFT(x).
  for (std::size_t n : {8, 16, 64, 128, 250}) {
    auto x = random_vector(n, InputDistribution::kUniform, 500 + n);
    const auto ra = checksum::input_checksum_vector(n);
    const cplx lhs = checksum::weighted_sum(ra.data(), x.data(), n);
    const auto X = dft::reference_dft(x);
    const cplx rhs = checksum::omega3_weighted_sum(X.data(), n);
    // |rA_t| reaches O(n) at the poles t ~ n/3, 2n/3, so the dot's
    // rounding (and the reference DFT's) scales up to n^2 * u.
    const double tol = 1e-10 * static_cast<double>(n) * static_cast<double>(n);
    EXPECT_NEAR(lhs.real(), rhs.real(), tol) << n;
    EXPECT_NEAR(lhs.imag(), rhs.imag(), tol) << n;
  }
}

TEST(InputChecksumVectorDmr, VotesOutSingleFault) {
  const std::size_t n = 64;
  const auto clean = checksum::input_checksum_vector(n);
  for (int victim : {1, 2}) {
    const auto voted = checksum::input_checksum_vector_dmr(n, victim, 17);
    for (std::size_t t = 0; t < n; ++t) {
      EXPECT_EQ(voted[t], clean[t]) << "victim=" << victim << " t=" << t;
    }
  }
}

TEST(Dot, WeightedSumMatchesManual) {
  auto x = random_vector(33, InputDistribution::kNormal, 1);
  auto w = random_vector(33, InputDistribution::kNormal, 2);
  cplx want{0, 0};
  for (std::size_t j = 0; j < 33; ++j) want += w[j] * x[j];
  const cplx got = checksum::weighted_sum(w.data(), x.data(), 33);
  EXPECT_NEAR(got.real(), want.real(), 1e-12);
  EXPECT_NEAR(got.imag(), want.imag(), 1e-12);
}

TEST(Dot, StridedAccess) {
  auto x = random_vector(60, InputDistribution::kUniform, 3);
  auto w = random_vector(20, InputDistribution::kUniform, 4);
  cplx want{0, 0};
  for (std::size_t j = 0; j < 20; ++j) want += w[j] * x[j * 3];
  const cplx got = checksum::weighted_sum(w.data(), x.data(), 20, 3);
  EXPECT_NEAR(std::abs(got - want), 0.0, 1e-12);
}

TEST(Dot, Omega3SumMatchesWeighted) {
  for (std::size_t n : {1, 2, 3, 7, 16, 100, 255}) {
    auto x = random_vector(n, InputDistribution::kNormal, 10 + n);
    const auto r = checksum::comp_weights(n);
    const cplx want = checksum::weighted_sum(r.data(), x.data(), n);
    const cplx got = checksum::omega3_weighted_sum(x.data(), n);
    EXPECT_NEAR(std::abs(got - want), 0.0, 1e-11) << n;
  }
}

TEST(Dot, DualSumIndexedComponent) {
  auto x = random_vector(25, InputDistribution::kUniform, 20);
  const auto d = checksum::dual_weighted_sum(nullptr, x.data(), 25);
  cplx plain{0, 0}, indexed{0, 0};
  for (std::size_t j = 0; j < 25; ++j) {
    plain += x[j];
    indexed += static_cast<double>(j) * x[j];
  }
  EXPECT_NEAR(std::abs(d.plain - plain), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(d.indexed - indexed), 0.0, 1e-12);
}

TEST(Dot, EnergyFusedVariantsMatchPlain) {
  auto x = random_vector(100, InputDistribution::kNormal, 30);
  auto w = random_vector(100, InputDistribution::kNormal, 31);
  const auto se = checksum::weighted_sum_energy(w.data(), x.data(), 100);
  EXPECT_NEAR(std::abs(se.sum - checksum::weighted_sum(w.data(), x.data(), 100)),
              0.0, 1e-12);
  EXPECT_NEAR(se.energy, checksum::energy(x.data(), 100), 1e-9);
  const auto de = checksum::dual_weighted_sum_energy(w.data(), x.data(), 100);
  const auto d = checksum::dual_weighted_sum(w.data(), x.data(), 100);
  EXPECT_NEAR(std::abs(de.sums.plain - d.plain), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(de.sums.indexed - d.indexed), 0.0, 1e-10);
  EXPECT_NEAR(de.energy, se.energy, 1e-9);
}

// ---------------------------------------------------------------- locate

// The t = 1 locate of the one memory-error decoder: a dual pair is the
// 2-moment set checksum::dual_moments makes of it.
checksum::MultiLocateResult locate_dual(const DualSum& stored,
                                        const DualSum& cur, const cplx* w,
                                        std::size_t n, double eta) {
  return checksum::locate_errors(checksum::dual_moments(stored, n),
                                 checksum::dual_moments(cur, n), w, n, eta,
                                 /*max_errors=*/1);
}

class LocateWeights : public ::testing::TestWithParam<bool> {};

TEST_P(LocateWeights, FindsAndCorrectsSingleError) {
  const bool use_ra = GetParam();
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 40);
  const auto ra = checksum::input_checksum_vector(n);
  const cplx* w = use_ra ? ra.data() : nullptr;
  const DualSum stored = checksum::dual_weighted_sum(w, x.data(), n);

  const std::size_t victim = 77;
  const cplx delta{0.5, -1.25};
  auto corrupted = x;
  corrupted[victim] += delta;
  const DualSum cur = checksum::dual_weighted_sum(w, corrupted.data(), n);
  const auto loc = locate_dual(stored, cur, w, n, 1e-9);
  ASSERT_TRUE(loc.mismatch);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.count, 1);
  EXPECT_EQ(loc.index[0], victim);
  EXPECT_NEAR(std::abs(loc.delta[0] - delta), 0.0, 1e-9);

  checksum::apply_corrections(corrupted.data(), 1, loc);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(corrupted[j] - x[j]), 0.0, 1e-9) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(ClassicAndCombined, LocateWeights,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pi) {
                           return pi.param ? "combined" : "classic";
                         });

TEST(Locate, CleanDataReportsNoMismatch) {
  auto x = random_vector(64, InputDistribution::kNormal, 50);
  const DualSum s = checksum::dual_weighted_sum(nullptr, x.data(), 64);
  const auto loc = locate_dual(s, s, nullptr, 64, 1e-12);
  EXPECT_FALSE(loc.mismatch);
  EXPECT_FALSE(loc.valid);
}

TEST(Locate, DoubleErrorDetectedButNotLocalized) {
  const std::size_t n = 64;
  auto x = random_vector(n, InputDistribution::kUniform, 60);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[3] += cplx{1.0, 0.7};
  x[40] += cplx{-0.6, 2.0};
  const DualSum cur = checksum::dual_weighted_sum(nullptr, x.data(), n);
  const auto loc = locate_dual(stored, cur, nullptr, n, 1e-9);
  EXPECT_TRUE(loc.mismatch);
  EXPECT_FALSE(loc.valid);  // no one-element hypothesis fits both moments
}

TEST(Locate, ErrorAtIndexZero) {
  const std::size_t n = 32;
  auto x = random_vector(n, InputDistribution::kUniform, 70);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[0] += cplx{2.0, 0.0};
  const DualSum cur = checksum::dual_weighted_sum(nullptr, x.data(), n);
  const auto loc = locate_dual(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index[0], 0u);
}

TEST(Locate, ErrorAtLastIndex) {
  const std::size_t n = 32;
  auto x = random_vector(n, InputDistribution::kUniform, 80);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[n - 1] += cplx{0.0, -3.0};
  const DualSum cur = checksum::dual_weighted_sum(nullptr, x.data(), n);
  const auto loc = locate_dual(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index[0], n - 1);
}

TEST(Locate, StridedCorrection) {
  const std::size_t n = 16, stride = 4;
  auto flat = random_vector(n * stride, InputDistribution::kUniform, 90);
  const DualSum stored =
      checksum::dual_weighted_sum(nullptr, flat.data(), n, stride);
  const auto pristine = flat;
  flat[7 * stride] += cplx{1.5, 1.5};
  const DualSum cur =
      checksum::dual_weighted_sum(nullptr, flat.data(), n, stride);
  const auto loc = locate_dual(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index[0], 7u);
  checksum::apply_corrections(flat.data(), stride, loc);
  for (std::size_t j = 0; j < flat.size(); ++j) {
    EXPECT_NEAR(std::abs(flat[j] - pristine[j]), 0.0, 1e-9);
  }
}

// The per-element CMCG loop the online and in-place schemes ran before the
// sweep moved into checksum::input_slot_checksums: the oracle that sweep must
// reproduce bit for bit.
struct SlotChecksums {
  std::vector<cplx> s1, s2;
  std::vector<double> energy;
  std::vector<checksum::SyndromeSet> syn;
};

SlotChecksums cmcg_oracle(const cplx* x, std::size_t rows, std::size_t width,
                          const cplx* w, int moments) {
  SlotChecksums o;
  o.s1.assign(width, cplx{0, 0});
  o.s2.assign(width, cplx{0, 0});
  o.energy.assign(width, 0.0);
  if (moments > 0) {
    checksum::SyndromeSet init;
    init.moments = moments;
    o.syn.assign(width, init);
  }
  const double inv_rows = 1.0 / static_cast<double>(rows);
  for (std::size_t t = 0; t < rows; ++t) {
    const cplx wt = w != nullptr ? w[t] : cplx{1.0, 0.0};
    const double td = static_cast<double>(t);
    const cplx* row = x + t * width;
    for (std::size_t i = 0; i < width; ++i) {
      const cplx p = cmul(wt, row[i]);
      o.s1[i] += p;
      o.s2[i] += td * p;
      o.energy[i] += norm2(row[i]);
      if (moments > 0) o.syn[i].accumulate(t, p, inv_rows);
    }
  }
  return o;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(InputSlotChecksums, BitwiseEqualToPerElementLoop) {
  struct Shape {
    std::size_t rows, width;
  };
  for (const Shape sh : {Shape{512, 512}, Shape{64, 256}, Shape{37, 19}}) {
    const auto x = random_vector(sh.rows * sh.width,
                                 InputDistribution::kNormal, 71 + sh.width);
    const auto rA = checksum::input_checksum_vector(sh.rows);
    for (const cplx* w : {rA.data(), static_cast<const cplx*>(nullptr)}) {
      for (int t : {1, 2}) {
        const int moments = t > 1 ? 2 * t : 0;
        const auto want = cmcg_oracle(x.data(), sh.rows, sh.width, w, moments);
        // Stale contents must be overwritten, not accumulated into.
        SlotChecksums got;
        got.s1.assign(sh.width, cplx{3.0, 4.0});
        got.s2.assign(sh.width, cplx{5.0, 6.0});
        got.energy.assign(sh.width, 7.0);
        got.syn.resize(moments > 0 ? sh.width : 0);
        checksum::input_slot_checksums(x.data(), sh.rows, sh.width, w,
                                       moments, got.s1.data(), got.s2.data(),
                                       got.energy.data(), got.syn.data());
        const auto where = ::testing::Message()
                           << sh.rows << "x" << sh.width << " t=" << t
                           << (w != nullptr ? " combined" : " all-ones");
        EXPECT_TRUE(same_bits(got.s1, want.s1)) << where;
        EXPECT_TRUE(same_bits(got.s2, want.s2)) << where;
        EXPECT_TRUE(same_bits(got.energy, want.energy)) << where;
        ASSERT_EQ(got.syn.size(), want.syn.size()) << where;
        for (std::size_t i = 0; i < got.syn.size(); ++i) {
          ASSERT_EQ(got.syn[i].moments, moments) << where;
          EXPECT_EQ(std::memcmp(got.syn[i].s.data(), want.syn[i].s.data(),
                                sizeof(cplx) * moments),
                    0)
              << where << " slot " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftfft
