// Real-input transforms via conjugate symmetry on the in-place stack.
//
// A length-n real signal (n a power of two >= 2) is reinterpreted as
// nc = n/2 interleaved complex values z_m = x_{2m} + i*x_{2m+1} — a pure
// type pun, no data movement — and transformed with the optimized nc-point
// InplaceRadix2Plan path (COBRA permute-fused opener, radix-16 tail). The
// Hermitian unpack is fused into the final butterfly pass (simd
// r2c_last_stage4/16) so the half-spectrum falls out of the last stage in
// one sweep: half the flops and half the memory traffic of the same-length
// complex transform, with no separate finalize sweep.
//
// Half-spectrum layout (FFTW r2c convention): nc + 1 complex bins
// X[0..n/2], where X[0] is the DC bin and X[n/2] the Nyquist bin (both have
// zero imaginary part for real input); the missing upper half is implied by
// X[n-k] = conj(X[k]). c2r consumes the same layout and returns the
// 1/n-normalized real inverse, so c2r(r2c(x)) == x up to round-off only —
// and bit-stably so: repeating the round trip reproduces identical bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/complex.hpp"
#include "common/seal.hpp"
#include "fft/inplace_radix2.hpp"

namespace ftfft::fft {

/// Precomputed state for one real-transform size: the shared nc-point
/// complex plan plus the quarter twiddle table omega(n, k), k in [0, nc/2],
/// that the split/unsplit post-pass consumes. Immutable after construction;
/// shareable across threads. Cached process-wide under the "real-plan" row
/// of plan_cache_stats() (LRU-bounded like every other plan cache).
class RealFftPlan {
 public:
  /// n must be a power of two >= 2.
  explicit RealFftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// out[0..n/2] = half-spectrum of in[0..n) (unnormalized forward).
  /// in and out must not overlap.
  void r2c(const double* in, cplx* out) const;

  /// out[0..n) = 1/n-normalized real inverse of the half-spectrum
  /// in[0..n/2]. in and out must not overlap. Only in[0..n/2] is read; the
  /// imaginary parts of in[0] and in[n/2] are ignored (they are
  /// structurally zero for any spectrum of a real signal).
  void c2r(const cplx* in, double* out) const;

  /// omega(n, k) for k in [0, n/4] — the post-pass twiddles.
  [[nodiscard]] const cplx* quarter_twiddles() const noexcept {
    return wq_.data();
  }

  /// Appends the quarter twiddle table and (transitively) the underlying
  /// complex plan's cached state to `out` — the real-plan registry seal
  /// therefore also covers the nc-point InplaceRadix2Plan this plan holds,
  /// even when that plan is no longer resident in its own cache.
  void collect_state(StateSpans& out) const {
    out.add_vec(wq_);
    if (cplan_) cplan_->collect_state(out);
  }

  /// Shared, cached plan for the given size. Thread-safe.
  static std::shared_ptr<const RealFftPlan> get(std::size_t n);

 private:
  std::size_t n_;
  std::size_t nc_;
  std::shared_ptr<const InplaceRadix2Plan> cplan_;
  std::vector<cplx> wq_;
};

/// One-shot conveniences over the cached plan.
void r2c(const double* in, std::size_t n, cplx* out);
void c2r(const cplx* in, std::size_t n, double* out);

}  // namespace ftfft::fft
