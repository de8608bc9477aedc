#include "parallel/parallel_plan.hpp"

#include <atomic>

#include "abft/options.hpp"
#include "checksum/weights.hpp"
#include "common/env.hpp"
#include "common/plan_registry.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace ftfft::parallel {
namespace {

std::atomic<std::uint64_t> plan_builds{0};

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

std::uint64_t seal_parallel_plan(const ParallelPlan& plan) {
  StateSpans spans;
  plan.collect_state(spans);
  return seal_spans(spans);
}

PlanRegistry<PlanKey, ParallelPlan, PlanKeyHash>& registry() {
  static PlanRegistry<PlanKey, ParallelPlan, PlanKeyHash> instance(
      plan_cache_capacity(), seal_parallel_plan);
  return instance;
}

// Enroll in plan_cache_stats() / scrub_plan_caches() before main. The
// lambdas are lazy on purpose: the registry (and its FTFFT_PLAN_CACHE_CAP /
// FTFFT_PLAN_VERIFY reads) is only materialized at first use or first stats
// call, never during static initialization.
const bool registry_registered =
    (ftfft::detail::register_plan_cache(ftfft::detail::PlanCacheHooks{
         [] { return registry().snapshot("parallel-plan"); },
         [] { return registry().scrub(); },
         [](std::size_t k) { registry().set_verify_interval(k); }}),
     true);

}  // namespace

ParallelPlan::ParallelPlan(std::size_t p, std::size_t n, bool protect,
                           int max_errors)
    : p_(p), n_(n), n_loc_(p == 0 ? 0 : n / p),
      bsz_(p == 0 ? 0 : n / p / p), protect_(protect),
      max_errors_(checksum::clamp_max_errors(max_errors)) {
  plan_builds.fetch_add(1, std::memory_order_relaxed);
  detail::require(p >= 2, "parallel plan: need at least 2 ranks");
  detail::require(p % 3 != 0,
                  "parallel plan: rank count divisible by 3 degenerates the "
                  "checksum encoding");
  detail::require(n % (p * p) == 0, "parallel plan: N must be divisible by p^2");
  tw_ = abft::TwiddleTables::get(n_);

  if (protect) {
    cp_ = checksum::shared_input_checksum_vector(
        p_, checksum::RaGenMethod::kClosedForm);
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
  return registry().get_or_build(PlanKey{p, n, protect, t}, [&] {
    return std::make_shared<const ParallelPlan>(p, n, protect, t);
  });
}

std::uint64_t ParallelPlan::build_count() noexcept {
  return plan_builds.load(std::memory_order_relaxed);
}

std::size_t ParallelPlan::cache_size() { return registry().size(); }

void ParallelPlan::drop_cache() { registry().clear(); }

std::shared_ptr<const ParallelPlan> warm_plans(std::size_t p, std::size_t n,
                                               bool protect,
                                               int max_correctable_errors) {
  if (max_correctable_errors <= 0) {
    max_correctable_errors =
        static_cast<int>(env_long("FTFFT_MAX_ERRORS", 1));
  }
  return ParallelPlan::get(p, n, protect, max_correctable_errors);
}

}  // namespace ftfft::parallel
