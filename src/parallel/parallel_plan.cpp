#include "parallel/parallel_plan.hpp"

#include "abft/options.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/env.hpp"
#include "common/plan_registry.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace ftfft::parallel {
namespace {

struct PlanKey {
  std::size_t p;
  std::size_t n;
  bool protect;
  int max_errors;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    return ((key.p * 1000003 + key.n) * 2 +
            static_cast<std::size_t>(key.protect)) *
               8 +
           static_cast<std::size_t>(key.max_errors);
  }
};

PlanRegistry<PlanKey, ParallelPlan, PlanKeyHash> plan_cache("parallel-plan");

}  // namespace

ParallelPlan::ParallelPlan(std::size_t p, std::size_t n, bool protect,
                           int max_errors)
    : p_(p), n_(n), n_loc_(p == 0 ? 0 : n / p),
      bsz_(p == 0 ? 0 : n / p / p), protect_(protect),
      max_errors_(checksum::clamp_max_errors(max_errors)) {
  using ftfft::detail::require;
  require(p >= 2, "parallel plan: need at least 2 ranks");
  require(p % 3 != 0,
          "parallel plan: rank count divisible by 3 degenerates the "
          "checksum encoding");
  require(n % (p * p) == 0, "parallel plan: N must be divisible by p^2");
  tw_ = abft::TwiddleTables::get(n_);

  if (protect) {
    cp_ = checksum::shared_input_checksum_vector(p_);
    // Same cache entry abft::resolve_protection_plan yields for the
    // in-place entry point under online options (the kOnlineInplace key
    // normalizes the buffering fields away), so the execution-time lookup
    // is a guaranteed hit.
    abft::Options fft2_opts = abft::Options::online_opt(true);
    fft2_opts.max_correctable_errors = max_errors_;
    fft2_ = abft::ProtectionPlan::get(n_loc_, abft::Scheme::kOnlineInplace,
                                      fft2_opts);
    eta_fft1_coeff_ = roundoff::practical_eta_coeff(p_);
    eta_block_coeff_ =
        roundoff::practical_eta_memory_coeff(bsz_ == 0 ? 1 : bsz_);
    if (max_errors_ > 1 && bsz_ > 0) {
      sn_block_ = checksum::shared_syndrome_nodes(bsz_);
    }
  }

  // Touch every sub-FFT plan tree the run will execute, so rank threads /
  // engine workers never race through a cold plan build: FFT1's p-point
  // engine, FFT2's k- and r-point sub-engines (protected) or the whole
  // n_loc engine (unprotected).
  fft::Fft warm_p(p_);
  if (protect) {
    fft::Fft warm_k(fft2_->k());
    fft::Fft warm_r(fft2_->r());
  } else {
    fft::Fft warm_loc(n_loc_);
  }
}

std::shared_ptr<const ParallelPlan> ParallelPlan::get(std::size_t p,
                                                      std::size_t n,
                                                      bool protect,
                                                      int max_errors) {
  const int t = protect ? checksum::clamp_max_errors(max_errors) : 1;
  return plan_cache.get_or_build(PlanKey{p, n, protect, t}, [&] {
    return std::make_shared<const ParallelPlan>(p, n, protect, t);
  });
}

std::shared_ptr<const ParallelPlan> warm_plans(std::size_t p, std::size_t n,
                                               bool protect,
                                               int max_correctable_errors) {
  if (max_correctable_errors <= 0) {
    max_correctable_errors = max_errors_default();
  }
  return ParallelPlan::get(p, n, protect, max_correctable_errors);
}

}  // namespace ftfft::parallel
