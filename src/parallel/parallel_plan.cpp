#include "parallel/parallel_plan.hpp"

#include <algorithm>

#include "abft/options.hpp"
#include "abft/unit_check.hpp"
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
  detail::require(p >= 2, "parallel plan: need at least 2 ranks");
  detail::require(p % 3 != 0,
                  "parallel plan: rank count divisible by 3 degenerates the "
                  "checksum encoding");
  detail::require(n % (p * p) == 0, "parallel plan: N must be divisible by p^2");
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
    max_correctable_errors =
        static_cast<int>(env_long("FTFFT_MAX_ERRORS", 1));
  }
  return ParallelPlan::get(p, n, protect, max_correctable_errors);
}

namespace detail {

double block_eta(const ParallelPlan& plan, double eta_override,
                 const cplx* slice) {
  return abft::threshold(plan.eta_block_coeff(),
                         checksum::robust_energy(slice, plan.n_loc()),
                         plan.n_loc(), eta_override);
}

void fold_fft1_checksums(const ParallelPlan& plan, std::size_t src,
                         const cplx* block, std::size_t len, cplx* s1,
                         cplx* s2, double* e) {
  const cplx w = plan.cp()[src];
  const double sd = static_cast<double>(src);
  for (std::size_t u = 0; u < len; ++u) {
    const cplx pterm = cmul(w, block[u]);
    s1[u] += pterm;
    s2[u] += sd * pterm;
    e[u] += norm2(block[u]);
  }
}

void fft1_columns(const ParallelPlan& plan, const ParallelOptions& opts,
                  fft::Fft& fftp, cplx* data, std::size_t stride,
                  std::size_t u0, std::size_t cols, const cplx* s1,
                  const cplx* s2, const double* e, fault::Injector& inj,
                  abft::Stats& stats) {
  const std::size_t p = plan.p();
  std::vector<cplx> buf(p), res(p);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t u = u0 + c;
    for (std::size_t t = 0; t < p; ++t) buf[t] = data[t * stride + c];
    if (!opts.protect) {
      fftp.execute(buf.data(), res.data());
    } else {
      const double eta =
          abft::threshold(plan.eta_fft1_coeff(), e[u], p, opts.eta_override);
      stats.eta_m = std::max(stats.eta_m, eta);
      const checksum::DualSum sums{s1[u], s2[u]};
      abft::verify_with_retry(
          stats, &abft::Stats::sub_fft_retries, opts.max_retries,
          "parallel ABFT: FFT1 column kept failing verification",
          [&] {
            fftp.execute(buf.data(), res.data());
            inj.apply(fault::Phase::kRankFft1Output, u, res.data(), p);
            return abft::omega3_check(res.data(), p, sums.plain, eta);
          },
          [&] {
            // Memory-vs-compute discrimination on the backed-up input.
            return abft::repair_region(
                {sums}, buf.data(), 1, plan.cp(), p, eta, opts.max_retries,
                abft::RepairTally::of(stats, false),
                "parallel ABFT: FFT1 input memory error not localizable");
          });
    }
    for (std::size_t t = 0; t < p; ++t) data[t * stride + c] = res[t];
  }
}

std::vector<checksum::DualSum> adjust_guards(const ParallelPlan& plan,
                                             const ParallelOptions& opts,
                                             const cplx* loc) {
  std::vector<checksum::DualSum> guards;
  if (!opts.protect || !opts.memory_ft) return guards;
  guards.resize(plan.p());
  for (std::size_t q = 0; q < plan.p(); ++q) {
    guards[q] =
        checksum::dual_weighted_sum(nullptr, loc + q * plan.bsz(), plan.bsz());
  }
  return guards;
}

void verify_adjusted(cplx* out, const std::vector<checksum::DualSum>& guards,
                     const ParallelPlan& plan, const ParallelOptions& opts,
                     abft::Stats& stats) {
  if (guards.empty()) return;
  const double eta = block_eta(plan, opts.eta_override, out);
  for (std::size_t q = 0; q < guards.size(); ++q) {
    abft::repair_region(
        {guards[q]}, out + q, plan.p(), nullptr, plan.bsz(), eta,
        opts.max_retries, abft::RepairTally::of(stats, true),
        "parallel ABFT: final output memory error not localizable");
  }
}

}  // namespace detail

}  // namespace ftfft::parallel
