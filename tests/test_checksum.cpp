#include <gtest/gtest.h>

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
using checksum::RaGenMethod;

TEST(CompWeights, CyclesThroughCubeRoots) {
  const auto r = checksum::comp_weights(10);
  ASSERT_EQ(r.size(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    const cplx want = omega3_pow(j);
    EXPECT_EQ(r[j], want) << j;
  }
}

// Direct O(n^2)-free evaluation of (rA)_t = sum_s omega3^s omega_n^(s*t).
cplx ra_direct(std::size_t n, std::size_t t) {
  cplx acc{0, 0};
  for (std::size_t s = 0; s < n; ++s) {
    acc += omega3_pow(s) * omega(n, s * t);
  }
  return acc;
}

class RaMethod : public ::testing::TestWithParam<RaGenMethod> {};

TEST_P(RaMethod, MatchesDirectSummation) {
  for (std::size_t n : {4, 8, 16, 32, 100, 128, 250}) {
    const auto ra = checksum::input_checksum_vector(n, GetParam());
    ASSERT_EQ(ra.size(), n);
    for (std::size_t t = 0; t < n; t += (n > 32 ? 17 : 1)) {
      const cplx want = ra_direct(n, t);
      // Entries can be as large as ~0.83 n; tolerance must scale with them.
      const double tol = 1e-11 * (1.0 + std::abs(want));
      EXPECT_NEAR(ra[t].real(), want.real(), tol) << "n=" << n << " t=" << t;
      EXPECT_NEAR(ra[t].imag(), want.imag(), tol) << "n=" << n << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothMethods, RaMethod,
                         ::testing::Values(RaGenMethod::kNaiveTrig,
                                           RaGenMethod::kClosedForm),
                         [](const ::testing::TestParamInfo<RaGenMethod>& pi) {
                           return pi.param == RaGenMethod::kNaiveTrig
                                      ? "naive"
                                      : "closed";
                         });

TEST(InputChecksumVector, MethodsAgree) {
  const std::size_t n = 1 << 12;
  const auto a = checksum::input_checksum_vector(n, RaGenMethod::kNaiveTrig);
  const auto b = checksum::input_checksum_vector(n, RaGenMethod::kClosedForm);
  for (std::size_t t = 0; t < n; t += 101) {
    const double tol = 1e-10 * (1.0 + std::abs(a[t]));
    EXPECT_NEAR(a[t].real(), b[t].real(), tol) << t;
    EXPECT_NEAR(a[t].imag(), b[t].imag(), tol) << t;
  }
}

TEST(InputChecksumVector, RejectsMultiplesOfThree) {
  EXPECT_THROW(checksum::input_checksum_vector(9, RaGenMethod::kClosedForm),
               std::invalid_argument);
  EXPECT_THROW(checksum::input_checksum_vector(12, RaGenMethod::kClosedForm),
               std::invalid_argument);
  EXPECT_THROW(checksum::input_checksum_vector(0, RaGenMethod::kClosedForm),
               std::invalid_argument);
}

TEST(InputChecksumVector, AbftIdentityHolds) {
  // The load-bearing property: (rA) x == r X for X = DFT(x).
  for (std::size_t n : {8, 16, 64, 128, 250}) {
    auto x = random_vector(n, InputDistribution::kUniform, 500 + n);
    const auto ra =
        checksum::input_checksum_vector(n, RaGenMethod::kClosedForm);
    const cplx lhs = checksum::weighted_sum(ra.data(), x.data(), n);
    const auto X = dft::reference_dft(x);
    const cplx rhs = checksum::omega3_weighted_sum(X.data(), n);
    const double tol = 1e-10 * static_cast<double>(n) *
                       static_cast<double>(n);  // rA entries reach O(n)
    EXPECT_NEAR(lhs.real(), rhs.real(), tol) << n;
    EXPECT_NEAR(lhs.imag(), rhs.imag(), tol) << n;
  }
}

TEST(InputChecksumVectorDmr, VotesOutSingleFault) {
  const std::size_t n = 64;
  const auto clean =
      checksum::input_checksum_vector(n, RaGenMethod::kClosedForm);
  for (int victim : {1, 2}) {
    const auto voted = checksum::input_checksum_vector_dmr(
        n, RaGenMethod::kClosedForm, victim, 17);
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

class LocateWeights : public ::testing::TestWithParam<bool> {};

TEST_P(LocateWeights, FindsAndCorrectsSingleError) {
  const bool use_ra = GetParam();
  const std::size_t n = 128;
  auto x = random_vector(n, InputDistribution::kUniform, 40);
  const auto ra = checksum::input_checksum_vector(n, RaGenMethod::kClosedForm);
  const cplx* w = use_ra ? ra.data() : nullptr;
  const DualSum stored = checksum::dual_weighted_sum(w, x.data(), n);

  const std::size_t victim = 77;
  const cplx delta{0.5, -1.25};
  auto corrupted = x;
  corrupted[victim] += delta;
  const DualSum cur = checksum::dual_weighted_sum(w, corrupted.data(), n);
  const auto loc = checksum::locate_single_error(stored, cur, w, n, 1e-9);
  ASSERT_TRUE(loc.mismatch);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index, victim);
  EXPECT_NEAR(std::abs(loc.delta - delta), 0.0, 1e-9);

  checksum::apply_correction(corrupted.data(), 1, loc);
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
  const auto loc = checksum::locate_single_error(s, s, nullptr, 64, 1e-12);
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
  const auto loc = checksum::locate_single_error(stored, cur, nullptr, n, 1e-9);
  EXPECT_TRUE(loc.mismatch);
  EXPECT_FALSE(loc.valid);  // ratio lands off-integer / off-real
}

TEST(Locate, ErrorAtIndexZero) {
  const std::size_t n = 32;
  auto x = random_vector(n, InputDistribution::kUniform, 70);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[0] += cplx{2.0, 0.0};
  const DualSum cur = checksum::dual_weighted_sum(nullptr, x.data(), n);
  const auto loc = checksum::locate_single_error(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index, 0u);
}

TEST(Locate, ErrorAtLastIndex) {
  const std::size_t n = 32;
  auto x = random_vector(n, InputDistribution::kUniform, 80);
  const DualSum stored = checksum::dual_weighted_sum(nullptr, x.data(), n);
  x[n - 1] += cplx{0.0, -3.0};
  const DualSum cur = checksum::dual_weighted_sum(nullptr, x.data(), n);
  const auto loc = checksum::locate_single_error(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index, n - 1);
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
  const auto loc = checksum::locate_single_error(stored, cur, nullptr, n, 1e-9);
  ASSERT_TRUE(loc.valid);
  EXPECT_EQ(loc.index, 7u);
  checksum::apply_correction(flat.data(), stride, loc);
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
    const auto rA =
        checksum::input_checksum_vector(sh.rows, RaGenMethod::kClosedForm);
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
