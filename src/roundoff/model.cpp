#include "roundoff/model.hpp"

#include <algorithm>
#include <cmath>

namespace ftfft::roundoff {
namespace {

// Safety factor on the practical thresholds. Detection misses scale only
// linearly with this, while false positives die off like exp(-c^2), so a
// generous constant buys reliability for pennies of fault coverage.
// bench_table4_roundoff at 2^16 puts the largest clean residual ~3000x
// below the threshold in both layers; 128 stays until the thresholds are
// re-derived from error bounds.
constexpr double kSafety = 128.0;

// Absolute floor so an all-zero input still verifies cleanly.
constexpr double kEtaFloor = 1e-300;

double log2d(std::size_t n) noexcept {
  return n <= 1 ? 1.0 : std::log2(static_cast<double>(n));
}

}  // namespace

double sigma_eps() noexcept {
  // sqrt(0.21) * 2^-52.
  return 0.4582575694955840 * 0x1.0p-52;
}

double fft_element_noise_sigma(std::size_t n, double sigma0) noexcept {
  // sigma_E^2 / sigma_X^2 = 2 sigma_eps^2 log2 n, with sigma_X = sqrt(n) s0.
  const double nd = static_cast<double>(n);
  return std::sqrt(2.0 * nd * sigma0 * sigma0 * sigma_eps() * sigma_eps() *
                   log2d(n));
}

double paper_checksum_noise_sigma(std::size_t n, double sigma0) noexcept {
  return static_cast<double>(n) * fft_element_noise_sigma(n, sigma0);
}

double paper_eta(std::size_t n, double sigma0) noexcept {
  return 3.0 * std::sqrt(static_cast<double>(n)) *
         paper_checksum_noise_sigma(n, sigma0);
}

double phi(double x) noexcept {
  return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
}

double throughput(double eta, std::size_t n, double sigma) noexcept {
  const double denom = std::sqrt(static_cast<double>(n)) * sigma;
  if (denom <= 0.0) return 1.0;
  return 1.0 / (3.0 - 2.0 * phi(eta / denom));
}

double practical_eta_coeff(std::size_t n) noexcept {
  // Sized when (rA) carried eps * |rA_t|^2 of its own error near its
  // poles (|rA_t| = O(n)); the exact generator leaves only the dot's
  // rounding over weights up to O(n), so eps * n^2 * sigma is now margin
  // (see model.hpp). Kept until the threshold is re-derived from a bound.
  const double nd = static_cast<double>(n);
  const double eps = 0x1.0p-52;
  return kSafety * eps * nd * nd;
}

double practical_eta_memory_coeff(std::size_t n) noexcept {
  // Plain summation noise: ~eps * n * sigma per sum; the indexed sum is
  // checked through the same plain-difference gate, so size for the plain
  // one.
  const double nd = static_cast<double>(n);
  const double eps = 0x1.0p-52;
  return kSafety * eps * nd * std::sqrt(nd);
}

double practical_eta_real_coeff(std::size_t nc) noexcept {
  // Unit-modulus weights on both sides of the post-pass comparison: the
  // residual is plain-summation noise over ~nc terms whose magnitudes the
  // split/unsplit map at most doubles (|X_k| <= |A| + |T| <= 2 |Z|), plus
  // the per-element finalize rounding — all linear in nc * sigma with an
  // extra sqrt(nc) for the partial-sum growth, like the memory checksums.
  const double nd = static_cast<double>(nc);
  const double eps = 0x1.0p-52;
  return 2.0 * kSafety * eps * nd * std::sqrt(nd);
}

double eta_from_coeff(double coeff, double sigma0) noexcept {
  return std::max(kEtaFloor, coeff * sigma0);
}

double practical_eta(std::size_t n, double sigma0) noexcept {
  return eta_from_coeff(practical_eta_coeff(n), sigma0);
}

}  // namespace ftfft::roundoff
