// ProtectionPlan: everything a protected transform of one size needs but
// does not mutate, built once and cached process-wide.
//
// Before this existed, every protected transform rebuilt its ABFT setup per
// call: the (rA) checksum-weight vectors for both layers, the balanced
// split, the round-off threshold coefficients, and the staging layout. For
// a single transform that is noise; for engine::BatchEngine running
// thousands of identical-size lanes it was O(lanes * n) of pure overhead.
// A ProtectionPlan is resolved once per (n, checksum-relevant options)
// combination — once per *batch* on the engine path — and shared by
// reference with every lane, so rA generation and threshold derivation are
// O(n) per batch (the batch-level analogue of TurboFFT's kernel fusion).
//
// Plans are immutable after construction and cached behind the shared
// LRU-bounded PlanRegistry (bounded by FTFFT_PLAN_CACHE_CAP); eviction only
// drops the cache reference, in-flight transforms keep theirs alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abft/dmr.hpp"
#include "abft/options.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/complex.hpp"
#include "common/error.hpp"
#include "common/seal.hpp"

namespace ftfft::abft {

/// Which protected executor the plan feeds. The out-of-place online scheme
/// (n = m*k) and the in-place k*r*k scheme decompose n differently, so they
/// are distinct cache entries even under identical Options.
enum class Scheme {
  kOffline,        ///< Algorithm 1: one checksum over the whole transform
  kOnline,         ///< Algorithm 2: two-layer out-of-place split n = m*k
  kOnlineInplace,  ///< section 5: in-place k*r*k decomposition
};

/// Precomputed sigma-independent threshold coefficients for one layer size;
/// roundoff::eta_from_coeff(coeff, sigma) yields the per-unit threshold.
struct EtaCoeffs {
  double comp = 0.0;  ///< computational CCV threshold coefficient
  double mem = 0.0;   ///< memory-checksum threshold coefficient
};

class ProtectionPlan {
 public:
  /// Direct (uncached) build; throws the same std::invalid_argument the
  /// per-call setup used to throw for unsupported sizes. Prefer get().
  ProtectionPlan(std::size_t n, Scheme scheme, const Options& opts);

  /// Cached resolution keyed on (n, scheme, the Options fields that shape
  /// the setup: `optimized` for kOnline, whose staging layout it selects,
  /// and max_correctable_errors). Thread-safe.
  static std::shared_ptr<const ProtectionPlan> get(std::size_t n,
                                                   Scheme scheme,
                                                   const Options& opts);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] Scheme scheme() const noexcept { return scheme_; }

  /// kOnline: first-layer sub-FFT size m in n = m*k. Unused otherwise.
  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  /// kOnline: second-layer size k. kOnlineInplace: outer sub-FFT size k in
  /// n = k*r*k. kOffline: unused.
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  /// kOnlineInplace: middle-layer size r.
  [[nodiscard]] std::size_t r() const noexcept { return r_; }
  /// kOnlineInplace: block length r*k (stride and count of layer 1).
  [[nodiscard]] std::size_t block() const noexcept { return blk_; }

  /// First-layer (kOnline, size m) or whole-transform (kOffline, size n)
  /// input checksum vector. nullptr for kOnlineInplace.
  [[nodiscard]] const cplx* weights_m() const noexcept {
    return wm_ ? wm_->data() : nullptr;
  }
  /// Second-layer (kOnline) / outer (kOnlineInplace) checksum vector of
  /// size k. nullptr for kOffline.
  [[nodiscard]] const cplx* weights_k() const noexcept {
    return wk_ ? wk_->data() : nullptr;
  }

  /// Threshold coefficients: eta_m for the m-layer (kOnline) or the whole
  /// transform (kOffline); eta_k for the k-layer; eta_block / eta_whole for
  /// the in-place scheme's block window and final permutation guard.
  [[nodiscard]] const EtaCoeffs& eta_m() const noexcept { return eta_m_; }
  [[nodiscard]] const EtaCoeffs& eta_k() const noexcept { return eta_k_; }
  [[nodiscard]] const EtaCoeffs& eta_block() const noexcept {
    return eta_block_;
  }
  [[nodiscard]] const EtaCoeffs& eta_whole() const noexcept {
    return eta_whole_;
  }

  // ---- Multi-error escalation support (PR 9). Present only when the plan
  // was resolved with Options::max_correctable_errors > 1; the default
  // single-error configuration carries none of this state.

  /// Clamped Options::max_correctable_errors the plan was resolved with.
  [[nodiscard]] int max_errors() const noexcept { return max_errors_; }
  /// Syndrome moment count 2t maintained per protected region (0 when
  /// max_errors() == 1).
  [[nodiscard]] int syndrome_moments() const noexcept {
    return max_errors_ > 1 ? 2 * max_errors_ : 0;
  }
  /// Duplicated normalized node table (checksum::shared_syndrome_nodes) for
  /// the first-layer / whole-transform region size (kOffline: n; kOnline: m;
  /// kOnlineInplace: the r*k block). nullptr when max_errors() == 1.
  [[nodiscard]] const double* syndrome_nodes_m() const noexcept {
    return sn_m_ ? sn_m_->data() : nullptr;
  }
  /// Node table for the second-layer / outer region size k. nullptr for
  /// kOffline or when max_errors() == 1.
  [[nodiscard]] const double* syndrome_nodes_k() const noexcept {
    return sn_k_ ? sn_k_->data() : nullptr;
  }

  /// Twiddle tables of the inter-layer stages (kOnline: layer-2 twiddle;
  /// kOnlineInplace: TM1 and the middle layer's TM2). nullptr for
  /// kOffline.
  [[nodiscard]] const TwiddleTables* twiddles() const noexcept {
    return tw_.get();
  }

  /// Appends every cached payload the plan references — checksum-weight
  /// vectors, syndrome node tables, and the twiddle tables last — to `out`. This span
  /// set is what the protection-plan registry seals: the seal stays valid
  /// even after the referenced vectors' own caches evicted them, because
  /// the shared_ptr handles pin the exact bytes hashed at build time.
  void collect_state(StateSpans& out) const {
    if (wm_) out.add_vec(*wm_);
    if (wk_) out.add_vec(*wk_);
    if (sn_m_) out.add_vec(*sn_m_);
    if (sn_k_) out.add_vec(*sn_k_);
    if (tw_) tw_->collect_state(out);
  }

  /// Staging layout (section 4.4), resolved once: sub-FFTs gathered per
  /// first-layer staging block (kOnline and kOnlineInplace, 32768 / sub-FFT
  /// size clamped to [min(4, count), count]) and columns staged per
  /// second-layer pass (kOnline). kOnline's are both 1 in the naive
  /// hierarchy (`optimized` off); kOnlineInplace always stages.
  [[nodiscard]] std::size_t layer1_batch() const noexcept {
    return layer1_batch_;
  }
  [[nodiscard]] std::size_t layer2_cols() const noexcept {
    return layer2_cols_;
  }

 private:
  std::size_t n_;
  Scheme scheme_;
  std::size_t m_ = 0, k_ = 0, r_ = 0, blk_ = 0;
  std::shared_ptr<const AlignedVector<cplx>> wm_;
  std::shared_ptr<const AlignedVector<cplx>> wk_;
  int max_errors_ = 1;
  std::shared_ptr<const std::vector<double>> sn_m_;
  std::shared_ptr<const std::vector<double>> sn_k_;
  std::shared_ptr<const TwiddleTables> tw_;
  EtaCoeffs eta_m_, eta_k_, eta_block_, eta_whole_;
  std::size_t layer1_batch_ = 1;
  std::size_t layer2_cols_ = 1;
};

/// Resolves the cached plan the given options need for the out-of-place
/// (inplace = false) or in-place entry point; nullptr for Mode::kNone
/// (plain FFT needs no protection state). Mode::kOffline maps to
/// Scheme::kOffline for both entry points (its in-place wrapper stages
/// through a copy and runs out of place).
std::shared_ptr<const ProtectionPlan> resolve_protection_plan(
    std::size_t n, const Options& opts, bool inplace);

namespace detail {
// Keep unqualified detail::require working in ftfft::abft files now that
// this namespace exists (same idiom as parallel/parallel_plan.hpp).
using ftfft::detail::require;

/// Phase::kPlanState injection hook (fault campaigns only): resolves the
/// plan the transform is about to use and fires every armed kPlanState
/// fault of opts.injector into its cached state spans — unit selects the
/// span (collect_state order), element the cplx-sized offset within it.
/// Returns true when at least one fault landed, in which case the caller
/// must drop any pre-resolved plan handle and re-resolve through the
/// verifying registry, which detects the seal mismatch, evicts and
/// rebuilds (set_plan_verify_interval(1) makes detection immediate).
bool inject_plan_state(std::size_t n, const Options& opts, bool inplace);
}  // namespace detail

}  // namespace ftfft::abft
