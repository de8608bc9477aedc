#include "core/ftfft.hpp"

#include "abft/protection_plan.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "fft/fft.hpp"

namespace ftfft {

namespace {

// Materializes the plan fft::Fft::execute runs at size n: the iterative
// in-place plan from fft::kInplaceEngineMinSize up, else the decomposition
// tree.
void warm_fft_plans(std::size_t n) {
  if (n < 2) return;
  if (fft::uses_inplace_engine(n)) {
    (void)fft::InplaceRadix2Plan::get(n);
  } else {
    (void)fft::make_plan(n);
  }
}

}  // namespace

FtPlan::FtPlan(std::size_t n, PlanConfig config) : n_(n), config_(config) {
  detail::require(n >= 1, "FtPlan: size must be >= 1");
}

abft::Options make_abft_options(const PlanConfig& config) {
  abft::Options o;
  o.memory_ft = config.memory_fault_tolerance;
  o.optimized = config.optimized;
  switch (config.protection) {
    case Protection::kNone:
      o.mode = abft::Mode::kNone;
      break;
    case Protection::kOffline:
      o.mode = abft::Mode::kOffline;
      break;
    case Protection::kOnline:
      o.mode = abft::Mode::kOnline;
      break;
  }
  o.eta_override = config.eta_override;
  o.max_retries = config.max_retries;
  if (config.max_correctable_errors > 0) {
    o.max_correctable_errors = config.max_correctable_errors;
  }
  o.injector = config.injector;
  return o;
}

std::size_t warm_plans(std::span<const std::size_t> sizes,
                       const PlanConfig& config) {
  const abft::Options opts = make_abft_options(config);
  std::size_t resident = 0;
  for (const std::size_t n : sizes) {
    if (n < 1) continue;
    // Protection kNone resolves to no ProtectionPlan; the FFT plans below
    // are still the first-request cost worth prepaying.
    const abft::ProtectionPlan* prev = nullptr;
    for (const bool inplace : {false, true}) {
      try {
        const auto plan = abft::resolve_protection_plan(n, opts, inplace);
        if (plan == nullptr) continue;
        // kOffline resolves both variants to the same cache entry; count
        // distinct plans, not resolutions.
        if (plan.get() != prev) ++resident;
        prev = plan.get();
        switch (plan->scheme()) {
          case abft::Scheme::kOffline:
            warm_fft_plans(n);
            break;
          case abft::Scheme::kOnline:
            warm_fft_plans(plan->m());
            warm_fft_plans(plan->k());
            break;
          case abft::Scheme::kOnlineInplace:
            warm_fft_plans(plan->k());
            break;
        }
      } catch (const std::invalid_argument&) {
        // This (size, variant) combination is unsupported (e.g. square-free
        // n for the in-place k*r*k shape); a real submission of it would
        // fail per lane, so there is nothing to prepay.
      }
    }
    // The unprotected transforms: Fft::execute's plan and, for powers of
    // two, the in-place plan Fft::execute_inplace runs.
    warm_fft_plans(n);
    if (n >= 2 && is_pow2(n)) (void)fft::InplaceRadix2Plan::get(n);
  }
  return resident;
}

std::size_t warm_real_plans(std::span<const std::size_t> sizes,
                            const PlanConfig& config) {
  const abft::Options opts = make_abft_options(config);
  std::size_t resident = 0;
  for (const std::size_t n : sizes) {
    try {
      if (opts.mode == abft::Mode::kNone) {
        // Building the RealFftPlan resolves the packed n/2-point in-place
        // plan with it; no protection state is needed.
        (void)fft::RealFftPlan::get(n);
        ++resident;
        continue;
      }
      (void)abft::RealProtectionPlan::get(n);
      ++resident;
      // The packed transform's protection plan and the sub-FFT
      // decompositions its executor touches, exactly like warm_plans.
      const auto cplan = abft::resolve_real_packed_plan(n, opts);
      if (cplan != nullptr) {
        switch (cplan->scheme()) {
          case abft::Scheme::kOffline:
            warm_fft_plans(cplan->n());
            break;
          case abft::Scheme::kOnline:
            warm_fft_plans(cplan->m());
            warm_fft_plans(cplan->k());
            break;
          case abft::Scheme::kOnlineInplace:
            warm_fft_plans(cplan->k());
            break;
        }
      }
    } catch (const std::invalid_argument&) {
      // Not a power of two >= 2: a real submission of this size would fail
      // per lane, so there is nothing to prepay.
    }
  }
  return resident;
}

abft::Options FtPlan::abft_options() const {
  return make_abft_options(config_);
}

const abft::ProtectionPlan* FtPlan::protection_plan(bool inplace) {
  auto& slot = inplace ? plan_inplace_ : plan_;
  if (slot == nullptr) {
    slot = abft::resolve_protection_plan(n_, abft_options(), inplace);
  }
  return slot.get();
}

void FtPlan::forward(cplx* in, cplx* out) {
  stats_.reset();
  abft::protected_transform(in, out, n_, abft_options(), stats_,
                            protection_plan(false));
}

std::vector<cplx> FtPlan::forward(std::vector<cplx> input) {
  detail::require(input.size() == n_, "FtPlan::forward: size mismatch");
  std::vector<cplx> out(n_);
  forward(input.data(), out.data());
  return out;
}

void FtPlan::forward_inplace(cplx* data) {
  stats_.reset();
  abft::protected_transform_inplace(data, n_, abft_options(), stats_,
                                    protection_plan(true));
}

void FtPlan::backward(cplx* in, cplx* out) {
  // idft(x) = conj(dft(conj(x))) / n, with the inner dft protected.
  if (scratch_.size() < n_) scratch_.resize(n_);
  for (std::size_t t = 0; t < n_; ++t) scratch_[t] = std::conj(in[t]);
  stats_.reset();
  abft::protected_transform(scratch_.data(), out, n_, abft_options(), stats_,
                            protection_plan(false));
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t t = 0; t < n_; ++t) out[t] = std::conj(out[t]) * inv_n;
}

const char* FtPlan::version() { return "ftfft 1.0.0 (SC'17 reproduction)"; }

}  // namespace ftfft
