#include "abft/protection_plan.hpp"

#include <algorithm>

#include "abft/inplace.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "roundoff/model.hpp"

namespace ftfft::abft {
namespace {

// Staging block target in complex elements (~512 KiB): the online scheme's
// section-4.4 buffering and the in-place scheme's layer 1 stage strided
// sub-FFT inputs / intermediate columns through blocks of this footprint.
constexpr std::size_t kStageElems = 32768;

struct PlanKey {
  std::size_t n;
  Scheme scheme;
  bool optimized;
  int max_errors;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    std::size_t h = key.n;
    h = h * 31 + static_cast<std::size_t>(key.scheme);
    h = h * 31 + static_cast<std::size_t>(key.optimized);
    h = h * 31 + static_cast<std::size_t>(key.max_errors);
    return h;
  }
};

PlanRegistry<PlanKey, ProtectionPlan, PlanKeyHash> plan_cache(
    "protection-plan");

EtaCoeffs eta_coeffs(std::size_t n) {
  return {roundoff::practical_eta_coeff(n),
          roundoff::practical_eta_memory_coeff(n)};
}

}  // namespace

ProtectionPlan::ProtectionPlan(std::size_t n, Scheme scheme,
                               const Options& opts)
    : n_(n),
      scheme_(scheme),
      max_errors_(checksum::clamp_max_errors(opts.max_correctable_errors)) {
  switch (scheme) {
    case Scheme::kOffline: {
      wm_ = checksum::shared_input_checksum_vector(n);
      eta_m_ = eta_coeffs(n);
      eta_whole_ = eta_m_;
      if (max_errors_ > 1) sn_m_ = checksum::shared_syndrome_nodes(n);
      break;
    }
    case Scheme::kOnline: {
      const auto split = balanced_split(n);
      m_ = split.first;
      k_ = split.second;
      wm_ = checksum::shared_input_checksum_vector(m_);
      wk_ = checksum::shared_input_checksum_vector(k_);
      eta_m_ = eta_coeffs(m_);
      eta_k_ = eta_coeffs(k_);
      if (opts.optimized) {
        layer1_batch_ = std::clamp<std::size_t>(
            kStageElems / m_, std::min<std::size_t>(4, k_), k_);
        layer2_cols_ = std::clamp<std::size_t>(
            kStageElems / std::max<std::size_t>(k_, 1), 1, m_);
      }
      if (max_errors_ > 1) {
        sn_m_ = checksum::shared_syndrome_nodes(m_);
        sn_k_ = checksum::shared_syndrome_nodes(k_);
      }
      tw_ = TwiddleTables::get(n);
      break;
    }
    case Scheme::kOnlineInplace: {
      const InplaceShape shape = inplace_shape(n);
      k_ = shape.k;
      r_ = shape.r;
      blk_ = r_ * k_;
      wk_ = checksum::shared_input_checksum_vector(k_);
      eta_k_ = eta_coeffs(k_);
      eta_block_ = eta_coeffs(blk_);
      eta_whole_ = eta_coeffs(n);
      // Layer 1 always stages (it is the scheme's input backup), so the
      // width ignores `optimized`: same rule as kOnline's layer 1.
      layer1_batch_ = std::clamp<std::size_t>(
          kStageElems / k_, std::min<std::size_t>(4, blk_), blk_);
      if (max_errors_ > 1) {
        sn_m_ = checksum::shared_syndrome_nodes(blk_);
        sn_k_ = checksum::shared_syndrome_nodes(k_);
      }
      tw_ = TwiddleTables::get(n);
      break;
    }
  }
}

std::shared_ptr<const ProtectionPlan> ProtectionPlan::get(std::size_t n,
                                                          Scheme scheme,
                                                          const Options& opts) {
  // `optimized` (through the staging layout) only shapes kOnline plans;
  // normalize it out of the other schemes' keys so option sweeps don't
  // dilute the LRU with identical entries.
  const PlanKey key{n, scheme, scheme == Scheme::kOnline && opts.optimized,
                    checksum::clamp_max_errors(opts.max_correctable_errors)};
  return plan_cache.get_or_build(key, [&] {
    return std::make_shared<const ProtectionPlan>(n, scheme, opts);
  });
}

std::shared_ptr<const ProtectionPlan> resolve_protection_plan(
    std::size_t n, const Options& opts, bool inplace) {
  switch (opts.mode) {
    case Mode::kNone:
      return nullptr;
    case Mode::kOffline:
      return ProtectionPlan::get(n, Scheme::kOffline, opts);
    case Mode::kOnline:
      return ProtectionPlan::get(
          n, inplace ? Scheme::kOnlineInplace : Scheme::kOnline, opts);
  }
  return nullptr;  // unreachable; keeps GCC's -Wreturn-type quiet
}

namespace detail {

bool inject_plan_state(std::size_t n, const Options& opts, bool inplace) {
  if (opts.injector == nullptr ||
      !opts.injector->pending(fault::Phase::kPlanState)) {
    return false;
  }
  const auto plan = resolve_protection_plan(n, opts, inplace);
  if (!plan) return false;
  StateSpans s;
  plan->collect_state(s);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    // The spans are immutable by contract; the const_cast models a hardware
    // upset in long-lived plan memory, which is exactly what the registry
    // seals exist to catch. A span is viewed as cplx elements (16-byte
    // granules) so FaultSpec addressing works unchanged; spans smaller than
    // one granule (none today) are skipped.
    const std::size_t len = s.spans[i].bytes / sizeof(cplx);
    auto* data = static_cast<cplx*>(const_cast<void*>(s.spans[i].data));
    fired += opts.injector->apply(fault::Phase::kPlanState, i, data, len);
  }
  return fired > 0;
}

}  // namespace detail

}  // namespace ftfft::abft
