#include "checksum/weights.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/env.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "common/seal.hpp"

namespace ftfft::checksum {
namespace {

// Resync the omega_n^t recurrence against libm every this many steps to keep
// the accumulated drift below a few ulps regardless of n.
constexpr std::size_t kResyncInterval = 512;

std::atomic<std::uint64_t> ra_generation_count{0};

struct RaKey {
  std::size_t n;
  RaGenMethod method;
  bool operator==(const RaKey&) const = default;
};

struct RaKeyHash {
  std::size_t operator()(const RaKey& k) const noexcept {
    return k.n * 2 + static_cast<std::size_t>(k.method);
  }
};

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

std::vector<cplx> input_checksum_vector(std::size_t n, RaGenMethod method) {
  check_size(n);
  ra_generation_count.fetch_add(1, std::memory_order_relaxed);
  const cplx num = cplx{1.0, 0.0} - omega3_pow(n);
  const cplx w3 = omega3();
  std::vector<cplx> ra(n);
  switch (method) {
    case RaGenMethod::kNaiveTrig: {
      for (std::size_t t = 0; t < n; ++t) {
        const cplx wt = omega(n, t);  // sin/cos every element
        ra[t] = num / (cplx{1.0, 0.0} - w3 * wt);
      }
      break;
    }
    case RaGenMethod::kClosedForm: {
      const cplx step = omega(n, 1);
      cplx wt{1.0, 0.0};
      for (std::size_t t = 0; t < n; ++t) {
        if (t % kResyncInterval == 0) wt = omega(n, t);
        ra[t] = num / (cplx{1.0, 0.0} - w3 * wt);
        wt = cmul(wt, step);
      }
      break;
    }
  }
  return ra;
}

std::vector<cplx> input_checksum_vector_dmr(std::size_t n, RaGenMethod method,
                                            int faulty_copy,
                                            std::size_t corrupt_index) {
  auto first = input_checksum_vector(n, method);
  if (faulty_copy == 1 && corrupt_index < n) first[corrupt_index] += 1.0;
  auto second = input_checksum_vector(n, method);
  if (faulty_copy == 2 && corrupt_index < n) second[corrupt_index] += 1.0;
  bool match = true;
  for (std::size_t t = 0; t < n; ++t) {
    if (first[t] != second[t]) {
      match = false;
      break;
    }
  }
  if (match) return first;
  // Disagreement: a fault hit one redundant execution. Vote with a third.
  const auto third = input_checksum_vector(n, method);
  for (std::size_t t = 0; t < n; ++t) {
    if (first[t] != second[t]) {
      first[t] = (second[t] == third[t]) ? second[t] : first[t];
    }
  }
  return first;
}

namespace {

std::uint64_t seal_cplx_vec(const std::vector<cplx>& v) {
  return fnv1a(v.data(), v.size() * sizeof(cplx));
}

PlanRegistry<RaKey, std::vector<cplx>, RaKeyHash>& ra_registry() {
  static PlanRegistry<RaKey, std::vector<cplx>, RaKeyHash> registry(
      plan_cache_capacity(), seal_cplx_vec);
  return registry;
}

// Enroll in plan_cache_stats() / scrub_plan_caches() before main. The
// lambdas are lazy on purpose: the registry (and its FTFFT_PLAN_CACHE_CAP /
// FTFFT_PLAN_VERIFY reads) is only materialized at first use or first stats
// call, never during static initialization.
const bool ra_registry_registered =
    (ftfft::detail::register_plan_cache(ftfft::detail::PlanCacheHooks{
         [] { return ra_registry().snapshot("checksum-weights"); },
         [] { return ra_registry().scrub(); },
         [](std::size_t k) { ra_registry().set_verify_interval(k); }}),
     true);

}  // namespace

std::shared_ptr<const std::vector<cplx>> shared_input_checksum_vector(
    std::size_t n, RaGenMethod method) {
  return ra_registry().get_or_build(RaKey{n, method}, [&] {
    return std::make_shared<const std::vector<cplx>>(
        input_checksum_vector_dmr(n, method));
  });
}

std::uint64_t ra_generations() noexcept {
  return ra_generation_count.load(std::memory_order_relaxed);
}

}  // namespace ftfft::checksum
