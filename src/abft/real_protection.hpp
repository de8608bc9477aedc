// ABFT protection for the real-input transforms (fft/real_fft.hpp).
//
// The packed nc = n/2 complex transform runs through the existing protected
// executors (offline / two-layer online), so the only new attack surface is
// the conjugate-symmetry post-pass that splits the packed spectrum Z into
// the half-spectrum X (r2c) or rebuilds Z from X (c2r). That pass is
// linear, so it is guarded the same way the paper guards every other
// linear stage: by a checksum identity that relates a dot over its input
// to a dot over its output.
//
// Writing W = omega(n, .), the split map is, for every k in [1, nc-1]
// (and, by periodicity of Z, for the DC/Nyquist edges too):
//
//   X_k = 1/2 (1 - i W^k) Z_k  +  1/2 (1 + i W^k) conj(Z_{nc-k})
//
// Dotting the omega3 output weights c_0..c_nc (the paper's
// 2-complex-multiplication CCV weights) against X and regrouping by Z_j
// yields the pullback identity
//
//   sum_k c_k X_k  =  sum_j a_j Z_j  +  sum_j g_j conj(Z_j)
//
// with sigma-independent vectors a, g precomputed per size (the k = nc/2
// self-pair needs no special case: its a-coefficient vanishes). A
// RealProtectionPlan stores a and conj(g) for r2c (reference from the clean
// packed spectrum, before the post-pass runs) and conj(a) and g for c2r
// (reference from the conjugated packed spectrum the prepare pass emits).
// Verification compares the pullback against the omega3 dot over the
// half-spectrum under the representation-specific threshold coefficient
// roundoff::practical_eta_real_coeff. A mismatch restarts the transform
// (the pass has no localization structure worth exploiting; it is O(n) of
// the work).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abft/options.hpp"
#include "common/complex.hpp"
#include "common/seal.hpp"
#include "fft/real_fft.hpp"

namespace ftfft::abft {

class ProtectionPlan;

/// Immutable per-size state for one protected real transform: the shared
/// fft::RealFftPlan, the four pullback vectors and the post-pass threshold
/// coefficient.
/// Cached process-wide under the "real-protection-plan" row of
/// plan_cache_stats().
class RealProtectionPlan {
 public:
  /// Direct (uncached) build; n must be a power of two >= 2. Prefer get().
  explicit RealProtectionPlan(std::size_t n);

  /// Shared, cached plan for the given size. Thread-safe.
  static std::shared_ptr<const RealProtectionPlan> get(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t nc() const noexcept { return nc_; }

  [[nodiscard]] const fft::RealFftPlan& real_plan() const noexcept {
    return *rplan_;
  }

  /// r2c reference = ws(a, Z) + conj(ws(conj(g), Z)) over the packed
  /// spectrum Z (nc entries each).
  [[nodiscard]] const cplx* pullback_fwd_a() const noexcept {
    return a_.data();
  }
  [[nodiscard]] const cplx* pullback_fwd_gc() const noexcept {
    return gc_.data();
  }

  /// c2r reference = conj(ws(conj(a), B)) + ws(g, B) over the conjugated
  /// packed spectrum B = conj(Z) that the prepare pass emits.
  [[nodiscard]] const cplx* pullback_inv_ac() const noexcept {
    return ac_.data();
  }
  [[nodiscard]] const cplx* pullback_inv_g() const noexcept {
    return g_.data();
  }

  /// roundoff::practical_eta_real_coeff(nc); eta_from_coeff(coeff, sigma)
  /// yields the per-call threshold.
  [[nodiscard]] double eta_coeff() const noexcept { return eta_coeff_; }

  /// Appends the pullback vectors and (transitively) the underlying real
  /// plan's cached state to `out` (plan-state sealing; see
  /// common/seal.hpp).
  void collect_state(StateSpans& out) const {
    out.add_vec(a_);
    out.add_vec(gc_);
    out.add_vec(ac_);
    out.add_vec(g_);
    if (rplan_) rplan_->collect_state(out);
  }

 private:
  std::size_t n_;
  std::size_t nc_;
  std::shared_ptr<const fft::RealFftPlan> rplan_;
  std::vector<cplx> a_, gc_, ac_, g_;
  double eta_coeff_ = 0.0;
};

/// Protected r2c: out[0..n/2] = half-spectrum of the n reals in[0..n) with
/// the protection selected in opts (Mode::kNone = plain fft::r2c). The
/// packed transform runs through protected_transform; the split post-pass
/// is verified against the pullback reference and restarted on mismatch
/// (UncorrectableError after Options::max_retries). `in` is only read, but
/// stays non-const to mirror protected_transform's repair contract.
///
/// `plan` / `cplan` are optional pre-resolved plans for n and for the
/// packed size n/2 with these opts — the batch engine passes both so lanes
/// skip every cache lookup; nullptr resolves through the process caches.
void protected_r2c(double* in, cplx* out, std::size_t n, const Options& opts,
                   Stats& stats, const RealProtectionPlan* plan = nullptr,
                   const ProtectionPlan* cplan = nullptr);

/// Protected c2r: out[0..n) = 1/n-normalized real inverse of the
/// half-spectrum in[0..n/2]. The prepare pass is verified first (omega3 dot
/// over the input vs the pullback over its output, imaginary parts of the
/// structurally real DC/Nyquist bins masked like the unprotected path
/// ignores them), then the packed inverse runs as a protected forward on
/// the conjugated spectrum (both passes work out of a scratch copy, so `in`
/// is only read — non-const for the same symmetry reason as protected_r2c).
void protected_c2r(cplx* in, double* out, std::size_t n, const Options& opts,
                   Stats& stats, const RealProtectionPlan* plan = nullptr,
                   const ProtectionPlan* cplan = nullptr);

/// Resolves the complex ProtectionPlan the protected real transforms of
/// size n use for their packed nc = n/2 transform under these options —
/// what the batch engine and warm_plans pre-resolve and pass as `cplan`
/// above. The online scheme needs nc >= 4; the two smaller packed sizes
/// fall back to the offline whole-transform scheme internally, and this
/// resolver applies the same mapping. nullptr for Mode::kNone and for
/// nc <= 1 (the one-point packed transform is a copy).
std::shared_ptr<const ProtectionPlan> resolve_real_packed_plan(
    std::size_t n, const Options& opts);

}  // namespace ftfft::abft
