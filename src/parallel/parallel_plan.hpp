// ParallelPlan: the immutable shared state of one (p, N) six-step
// distributed transform, resolved once and cached process-wide.
//
// Before this existed every simulated rank rebuilt the setup on every call:
// the p-point FFT1 input-checksum vector (rA) ran its DMR generation p
// times per transform, the FFT2 k*r*k protection state was re-derived per
// rank, and the mixed-radix sub-plans were resolved through the caches p
// times from p concurrent threads. A ParallelPlan hoists all of it: the
// checksum vector and the FFT2 ProtectionPlan are shared cache references,
// the sub-FFT plan trees (p, k, r / n_loc) are pre-touched at build, and
// the sigma-independent threshold coefficients are precomputed so the hot
// path only pays roundoff::eta_from_coeff. Both parallel executors — the
// thread-per-rank reference path (parallel_fft) and the engine-sharded path
// (submit_parallel) — resolve the same plan, once per call / submission.
//
// Plans live behind the shared LRU-bounded PlanRegistry and show up in
// ftfft::plan_cache_stats() as "parallel-plan".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abft/dmr.hpp"
#include "abft/protection_plan.hpp"
#include "checksum/dot.hpp"
#include "common/complex.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "parallel/parallel_fft.hpp"

namespace ftfft::fft {
class Fft;
}  // namespace ftfft::fft

namespace ftfft::parallel {

class ParallelPlan {
 public:
  /// Direct (uncached) build; throws std::invalid_argument for bad geometry
  /// (p < 2, 3 | p, p^2 does not divide n) and propagates
  /// abft::inplace_shape's rejection of unsupported n_loc when protected.
  /// Prefer get(). max_errors (clamped to
  /// [1, checksum::kMaxCorrectableErrors]) > 1 additionally caches the
  /// syndrome node table for the bsz-element transpose blocks and resolves
  /// the FFT2 protection plan with the same multi-error budget.
  ParallelPlan(std::size_t p, std::size_t n, bool protect, int max_errors = 1);

  /// Cached resolution keyed on (p, n, protect, clamped max_errors).
  /// Thread-safe.
  static std::shared_ptr<const ParallelPlan> get(std::size_t p, std::size_t n,
                                                 bool protect,
                                                 int max_errors = 1);

  [[nodiscard]] std::size_t p() const noexcept { return p_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t n_loc() const noexcept { return n_loc_; }
  [[nodiscard]] std::size_t bsz() const noexcept { return bsz_; }
  [[nodiscard]] bool protect() const noexcept { return protect_; }

  /// p-point FFT1 input checksum vector (rA, DMR-generated, shared with the
  /// "checksum-weights" cache). nullptr when unprotected.
  [[nodiscard]] const cplx* cp() const noexcept {
    return cp_ ? cp_->data() : nullptr;
  }

  /// Cached k*r*k ProtectionPlan for the n_loc-point FFT2 — the same cache
  /// entry abft::inplace_online_transform would resolve, handed to its
  /// plan-based overload so FFT2 is rA-generation-free per call. nullptr
  /// when unprotected.
  [[nodiscard]] const abft::ProtectionPlan* fft2_plan() const noexcept {
    return fft2_.get();
  }

  /// Sigma-independent threshold coefficients (see roundoff::eta_from_coeff):
  /// FFT1 per-column computational threshold over p points, and the
  /// memory-checksum threshold for one bsz-element transposed block.
  [[nodiscard]] double eta_fft1_coeff() const noexcept {
    return eta_fft1_coeff_;
  }
  [[nodiscard]] double eta_block_coeff() const noexcept {
    return eta_block_coeff_;
  }

  /// Clamped multi-error budget the plan was resolved with (1 = single).
  [[nodiscard]] int max_errors() const noexcept { return max_errors_; }
  /// Duplicated normalized node table for one bsz-element transpose block
  /// (checksum::shared_syndrome_nodes(bsz)); nullptr unless protected with
  /// max_errors() > 1.
  [[nodiscard]] const double* syndrome_nodes_block() const noexcept {
    return sn_block_ ? sn_block_->data() : nullptr;
  }

  /// Twiddle tables for the n-point step-3 twiddle omega_N^(r*(q*bsz+u)),
  /// shared by the protected (DMR) and unprotected paths.
  [[nodiscard]] const abft::TwiddleTables& twiddles() const noexcept {
    return *tw_;
  }

  /// Appends the rA vector, the block syndrome node table,
  /// (transitively) the FFT2 ProtectionPlan's cached payloads and the
  /// twiddle tables to `out` (plan-state sealing; see common/seal.hpp).
  void collect_state(StateSpans& out) const {
    if (cp_) out.add_vec(*cp_);
    if (sn_block_) out.add_vec(*sn_block_);
    if (fft2_) fft2_->collect_state(out);
    tw_->collect_state(out);
  }

 private:
  std::size_t p_, n_, n_loc_, bsz_;
  bool protect_;
  int max_errors_ = 1;
  std::shared_ptr<const std::vector<cplx>> cp_;
  std::shared_ptr<const std::vector<double>> sn_block_;
  std::shared_ptr<const abft::ProtectionPlan> fft2_;
  std::shared_ptr<const abft::TwiddleTables> tw_;
  double eta_fft1_coeff_ = 0.0;
  double eta_block_coeff_ = 0.0;
};

/// Pre-resolves everything a (p, n) distributed transform of the given
/// protection level touches — the ParallelPlan itself, the rA vector, the
/// FFT2 ProtectionPlan and the p / k / r / n_loc sub-FFT plan trees — so
/// the first submit_parallel / parallel_fft call afterwards performs zero
/// rA generations and no plan builds. Returns the plan handle (keeping it
/// alive pins the entry against LRU eviction).
/// max_correctable_errors: 0 = the FTFFT_MAX_ERRORS process default, i.e.
/// the budget a default-constructed ParallelOptions submit resolves.
std::shared_ptr<const ParallelPlan> warm_plans(std::size_t p, std::size_t n,
                                               bool protect = true,
                                               int max_correctable_errors = 0);

namespace detail {

using ftfft::detail::require;

// The shared six-step helpers. Exactly one definition serves the
// thread-per-rank reference path and the engine-sharded path, so the two
// stay bit-identical by construction, not by parallel maintenance. (Both
// twiddle through abft::dmr_twiddle_multiply / abft::twiddle_multiply over
// ParallelPlan::twiddles(), one kernel whose plain pass equals its DMR
// output bitwise.)

/// Memory-check threshold for one rank's bsz-element blocks, scaled by the
/// outlier-robust energy of its n_loc-element `slice` (the transposes and
/// the final-output guard). Both paths read the slice a transpose is about
/// to send, so their thresholds agree bitwise.
[[nodiscard]] double block_eta(const ParallelPlan& plan, double eta_override,
                               const cplx* slice);

/// CMCG fused into reception: folds received block `src` (len elements,
/// one per FFT1 column) into the column checksums s1 += cp[src] x,
/// s2 += src cp[src] x and energies e += |x|^2.
void fold_fft1_checksums(const ParallelPlan& plan, std::size_t src,
                         const cplx* block, std::size_t len, cplx* s1,
                         cplx* s2, double* e);

/// FFT1 in place over `cols` p-point columns of a row-major block (column
/// c at data[c], data[stride + c], ...; it is FFT1 column u = u0 + c).
/// Each column is gathered into a buffer, the Fig. 4 restart backup.
/// Protected runs verify column u against its CMCG sums s1[u], s2[u] and
/// energy e[u], retry, and repair a localized input memory fault in the
/// backup.
void fft1_columns(const ParallelPlan& plan, const ParallelOptions& opts,
                  fft::Fft& fftp, cplx* data, std::size_t stride,
                  std::size_t u0, std::size_t cols, const cplx* s1,
                  const cplx* s2, const double* e, fault::Injector& inj,
                  abft::Stats& stats);

/// Final-output guard of the local adjust: dual sums of the p contiguous
/// bsz-element blocks of a rank's slice, taken before the adjust moves
/// block q to stride p. Empty unless opts.protect && opts.memory_ft.
[[nodiscard]] std::vector<checksum::DualSum> adjust_guards(
    const ParallelPlan& plan, const ParallelOptions& opts, const cplx* loc);

/// Verifies the adjusted slice `out` against adjust_guards' sums (a block
/// keeps its within-block index) and corrects a localized memory fault.
/// No-op for empty guards.
void verify_adjusted(cplx* out, const std::vector<checksum::DualSum>& guards,
                     const ParallelPlan& plan, const ParallelOptions& opts,
                     abft::Stats& stats);

}  // namespace detail

}  // namespace ftfft::parallel
