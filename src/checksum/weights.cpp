#include "checksum/weights.hpp"

#include <atomic>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "common/seal.hpp"

namespace ftfft::checksum {
namespace {

std::atomic<std::uint64_t> ra_generation_count{0};

void check_size(std::size_t n) {
  if (n == 0) throw std::invalid_argument("checksum: n must be >= 1");
  if (n % 3 == 0) {
    throw std::invalid_argument(
        "checksum: the omega_3 encoding degenerates when 3 divides n; "
        "choose a transform size not divisible by 3");
  }
}

}  // namespace

std::vector<cplx> comp_weights(std::size_t n) {
  std::vector<cplx> r(n);
  for (std::size_t j = 0; j < n; ++j) r[j] = omega3_pow(j);
  return r;
}

AlignedVector<cplx> input_checksum_vector(std::size_t n) {
  check_size(n);
  ra_generation_count.fetch_add(1, std::memory_order_relaxed);
  // (rA)_t = (1 - omega_3^n)/2 * (1 - i cot h), h = pi q / (3n), q the exact
  // residue of n + 3t in (-3n/2, 3n/2]; q != 0 as 3 does not divide n.
  const cplx half = 0.5 * (cplx{1.0, 0.0} - omega3_pow(n));
  const std::uint64_t period = 3 * static_cast<std::uint64_t>(n);
  const double scale = std::numbers::pi / static_cast<double>(period);
  AlignedVector<cplx> ra(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t r = (n + 3 * static_cast<std::uint64_t>(t)) % period;
    const double q = 2 * r > period ? -static_cast<double>(period - r)
                                    : static_cast<double>(r);
    const double cot = 1.0 / std::tan(scale * q);
    ra[t] = {half.real() + half.imag() * cot, half.imag() - half.real() * cot};
  }
  return ra;
}

AlignedVector<cplx> input_checksum_vector_dmr(std::size_t n, int faulty_copy,
                                              std::size_t corrupt_index) {
  auto first = input_checksum_vector(n);
  if (faulty_copy == 1 && corrupt_index < n) first[corrupt_index] += 1.0;
  auto second = input_checksum_vector(n);
  if (faulty_copy == 2 && corrupt_index < n) second[corrupt_index] += 1.0;
  if (first == second) return first;
  // Disagreement: a fault hit one redundant execution. Vote with a third.
  const auto third = input_checksum_vector(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (first[t] != second[t] && second[t] == third[t]) first[t] = second[t];
  }
  return first;
}

namespace {

PlanRegistry<std::size_t, AlignedVector<cplx>> ra_cache(
    "checksum-weights", [](const AlignedVector<cplx>& v) {
      return fnv1a(v.data(), v.size() * sizeof(cplx));
    });

}  // namespace

std::shared_ptr<const AlignedVector<cplx>> shared_input_checksum_vector(
    std::size_t n) {
  return ra_cache.get_or_build(n, [&] {
    return std::make_shared<const AlignedVector<cplx>>(
        input_checksum_vector_dmr(n));
  });
}

std::uint64_t ra_generations() noexcept {
  return ra_generation_count.load(std::memory_order_relaxed);
}

}  // namespace ftfft::checksum
