#include "roundoff/model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "checksum/dot.hpp"
#include "checksum/weights.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace ftfft {
namespace {

TEST(RoundoffModel, SigmaEpsMagnitude) {
  const double s = roundoff::sigma_eps();
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1e-15);
  EXPECT_NEAR(s, 0.458257569 * 0x1.0p-52, 1e-20);
}

TEST(RoundoffModel, PhiKnownValues) {
  EXPECT_NEAR(roundoff::phi(0.0), 0.5, 1e-12);
  EXPECT_NEAR(roundoff::phi(1.959964), 0.975, 1e-4);
  EXPECT_NEAR(roundoff::phi(-1.959964), 0.025, 1e-4);
  EXPECT_NEAR(roundoff::phi(8.0), 1.0, 1e-12);
}

TEST(RoundoffModel, ThroughputLimits) {
  // eta = 0: every fault-free run is flagged half the time in the model's
  // symmetric-tail formulation -> 1/(3 - 2*0.5) = 0.5.
  EXPECT_NEAR(roundoff::throughput(0.0, 1024, 1.0), 0.5, 1e-12);
  // Huge eta: nothing is flagged.
  EXPECT_NEAR(roundoff::throughput(1e6, 1024, 1.0), 1.0, 1e-9);
  // The paper's 3-sigma choice: 1 / (3 - 2*Phi(3)) ~ 0.9973.
  const double sigma = 2.0;
  const double eta3 = 3.0 * std::sqrt(1024.0) * sigma;
  EXPECT_NEAR(roundoff::throughput(eta3, 1024, sigma), 0.9973, 1e-3);
}

TEST(RoundoffModel, ThroughputMonotoneInEta) {
  double prev = 0.0;
  for (double eta = 0.0; eta < 10.0; eta += 0.5) {
    const double t = roundoff::throughput(eta, 256, 0.1);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(RoundoffModel, EtasGrowWithSize) {
  double prev_paper = 0.0, prev_practical = 0.0;
  for (std::size_t n = 16; n <= 1 << 16; n *= 4) {
    const double p = roundoff::paper_eta(n, 1.0);
    const double q = roundoff::practical_eta(n, 1.0);
    EXPECT_GT(p, prev_paper);
    EXPECT_GT(q, prev_practical);
    prev_paper = p;
    prev_practical = q;
  }
}

// The property that makes the whole library usable: across many random
// transforms, the fault-free checksum residual stays below practical_eta,
// i.e. the detector has (essentially) no false positives.
class NoFalsePositives
    : public ::testing::TestWithParam<std::tuple<std::size_t, InputDistribution>> {};

TEST_P(NoFalsePositives, ResidualBelowPracticalEta) {
  const auto [n, dist] = GetParam();
  const auto ra = checksum::input_checksum_vector(n);
  fft::Fft engine(n);
  std::vector<cplx> out(n);
  Rng rng(1234 + n);
  double worst_ratio = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<cplx> x(n);
    fill_random(x.data(), n, dist, rng);
    const auto se = checksum::weighted_sum_energy(ra.data(), x.data(), n);
    engine.execute(x.data(), out.data());
    const cplx rx = checksum::omega3_weighted_sum(out.data(), n);
    const double sigma =
        std::sqrt(se.energy / (2.0 * static_cast<double>(n)));
    const double eta = roundoff::practical_eta(n, sigma);
    worst_ratio = std::max(worst_ratio, std::abs(rx - se.sum) / eta);
  }
  EXPECT_LT(worst_ratio, 1.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDistributions, NoFalsePositives,
    ::testing::Combine(::testing::Values<std::size_t>(64, 256, 1024, 4096),
                       ::testing::Values(InputDistribution::kUniform,
                                         InputDistribution::kNormal)),
    [](const auto& pi) {
      return "n" + std::to_string(std::get<0>(pi.param)) +
             (std::get<1>(pi.param) == InputDistribution::kUniform ? "_uniform"
                                                                   : "_normal");
    });

}  // namespace
}  // namespace ftfft
