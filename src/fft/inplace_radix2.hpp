// Iterative in-place FFT for power-of-two sizes.
//
// This is the "in-place, no auxiliary O(N) array" engine the parallel scheme
// of the paper relies on (section 5): bit-reversal permutation followed by
// butterfly stages over the data itself. It is also the library's
// power-of-two engine from fft::kInplaceEngineMinSize (512) points up:
// fft::Fft runs those sizes through forward_copy() / forward() / inverse(),
// so every protected scheme's sub-FFTs and the unprotected baseline share
// its kernels. The recursive executor (fft/executor.hpp) keeps the smaller
// powers of two, where its codelet tree is faster, and every other size.
//
// Execution paths, slowest to fastest:
//   * forward_radix2(): one radix-2 pass per level, pair-swap permutation.
//     Kept for measurement and cross-checking.
//   * forward_radix4_reference() / inverse_radix4_reference(): the PR 4
//     schedule — pair-swap permutation, fused radix-4 stages (cache-blocked
//     for len <= the window), whole-array radix-4 passes for the tail, and a
//     separate 1/n sweep on the inverse. Retained as the bit-exact reference
//     for the optimized path.
//   * forward() / inverse(): the memory-optimized path. Above a size
//     threshold the pair-swap permutation is replaced by a COBRA
//     cache-blocked bit-reversal (fft/bit_reversal.hpp) with the twiddle-free
//     opener stage fused into the tile write-back; the whole-array tail
//     (stage len > cache window) fuses pairs of consecutive radix-4 stages
//     into radix-16 passes (four radix-2 levels per streaming pass — chosen
//     over three-level radix-8 groups because those misalign with the
//     radix-4 pairing and cannot reproduce its FMA rounding bit-for-bit,
//     while radix-16 reuses the packed stage twiddles unchanged); and the
//     inverse folds its 1/n scaling into the final stage's stores. All of it
//     is bit-identical to the *_radix4_reference() schedule: permutation and
//     tiling reorder no butterfly, the radix-16 pass performs the two
//     stages' exact operation sequences in registers, and the fused scaling
//     multiplies already-rounded butterfly results (verified by
//     tests/test_inplace_optimized.cpp on every backend).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/complex.hpp"
#include "fft/bit_reversal.hpp"

namespace ftfft::fft {

/// Memory-hierarchy tuning knobs of the in-place engine. Defaults come from
/// default_inplace_tuning() (env-overridable); tests and benches construct
/// plans with explicit values to force every code path at small sizes.
struct InplaceTuning {
  /// log2 of the cache window (in elements) for stage blocking: stages with
  /// len <= 2^block_log2 run window-by-window in one streaming pass. The
  /// default 2^16 elements = 1 MiB (half the dev box's 2 MiB L2) measured
  /// fastest and leaves a 4-level tail at 2^20 — exactly one radix-16 pass.
  /// The reference path always blocks at PR 4's 2^15 so the baseline stays
  /// faithful (blocking is bit-neutral, so outputs still match bit-for-bit).
  unsigned block_log2 = 16;
  /// COBRA tile field width b (tile = 2^b x 2^b elements, clamped to
  /// log2(n)/2). 2^(2b+1) elements of thread-local buffer are live per run;
  /// b = 4 keeps the two tiles L1-resident (8 KiB) and measured fastest
  /// from 2^12 through 2^20 on AVX2 (b = 5 within noise, b = 6 slower).
  unsigned cobra_tile_bits = 4;
  /// Sizes below 2^cobra_min_log2 keep the pair-swap permutation (the
  /// scattered walk is cache-resident and cheaper than tiling there).
  unsigned cobra_min_log2 = 12;
};

/// Default tuning: InplaceTuning's initializers, overridable via the
/// FTFFT_INPLACE_BLOCK_LOG2 / FTFFT_COBRA_TILE_BITS / FTFFT_COBRA_MIN_LOG2
/// environment variables (read once per call; plans latch values at
/// construction).
[[nodiscard]] InplaceTuning default_inplace_tuning();

/// Precomputed bit-reversal permutation + twiddle tables for one size.
/// Immutable after construction; shareable across threads.
class InplaceRadix2Plan {
 public:
  /// n must be a power of two >= 1. Uses default_inplace_tuning().
  explicit InplaceRadix2Plan(std::size_t n);
  InplaceRadix2Plan(std::size_t n, const InplaceTuning& tuning);

  /// Forward DFT of data[0..n) in place, unit stride, not normalized.
  void forward(cplx* data) const;

  /// Out-of-place forward DFT (dst = FFT(src), src untouched, dst/src
  /// disjoint), bit-identical to copying src into dst and calling
  /// forward(). Above the COBRA threshold the bit-reversal gathers straight
  /// from src (CobraBitReversal::run_copy), so against copy+forward this
  /// saves one full read+write sweep of the array — the reason the real
  /// r2c packing uses it instead of its original memcpy.
  void forward_copy(const cplx* src, cplx* dst) const;

  /// Descriptor of the final whole-array butterfly pass withheld by
  /// forward_open_last() / forward_copy_open_last(): one radix-4 pass
  /// (radix == 4; twiddle packs w1a/w2a, n/4 entries) or one fused
  /// radix-16 pass (radix == 16; inner packs w1a/w2a, outer w1b/w2b) of
  /// block length n. Applying it through the matching kernel completes the
  /// forward transform exactly as forward() would have.
  struct OpenLastStage {
    int radix;        ///< 4 or 16
    const cplx* w1a;
    const cplx* w2a;
    const cplx* w1b;  ///< radix-16 only, else nullptr
    const cplx* w2b;  ///< radix-16 only, else nullptr
  };

  /// forward() minus the final whole-array butterfly pass, in place;
  /// returns that pass's descriptor. The real r2c path completes the
  /// transform through the fused last-stage + Hermitian-unpack kernels
  /// (simd r2c_last_stage4/16), which deletes the separate unpack sweep —
  /// the reason the stage is handed back instead of executed. Requires
  /// n >= 8 (smaller schedules end in an opener that cannot be split off).
  OpenLastStage forward_open_last(cplx* data) const;

  /// forward_copy() minus the final pass; see forward_open_last().
  OpenLastStage forward_copy_open_last(const cplx* src, cplx* dst) const;

  /// Inverse DFT (1/n normalized) in place.
  void inverse(cplx* data) const;

  /// Forward DFT via the classic one-stage-per-level radix-2 schedule.
  /// Mathematically identical to forward() up to rounding; kept for the
  /// radix-2 vs radix-4 benchmarks and correctness cross-checks.
  void forward_radix2(cplx* data) const;

  /// The retained PR 4 schedule (pair-swap permute + radix-4 stages); the
  /// optimized forward()/inverse() must match these bit-for-bit.
  void forward_radix4_reference(cplx* data) const;
  void inverse_radix4_reference(cplx* data) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  // ------------------------------------------------------------------
  // Isolated pipeline pieces, exposed for benches (permute-only and
  // per-stage-group timing rows in bench_micro_fft) and property tests.

  /// Pair-swap bit-reversal permutation (the reference walk).
  void permute_pairswap(cplx* data) const;
  /// COBRA cache-blocked permutation; falls back to the pair-swap walk when
  /// the plan is below the COBRA threshold (cobra_enabled() == false).
  void permute_cobra(cplx* data) const;
  /// COBRA permutation with the twiddle-free opener fused into tile
  /// write-back (forward direction). Requires cobra_enabled().
  void permute_cobra_fused_opener(cplx* data) const;
  /// The cache-blocked small-stage pass (one streaming pass over the array).
  void blocked_stages_pass(cplx* data, bool include_opener) const;
  /// The whole-array tail passes (radix-16 / radix-4 stages beyond the
  /// cache window). No-op when the whole transform fits one window.
  void tail_stages_pass(cplx* data) const;

  [[nodiscard]] bool cobra_enabled() const noexcept {
    return cobra_ != nullptr;
  }
  [[nodiscard]] unsigned cobra_tile_bits() const noexcept {
    return cobra_ ? cobra_->tile_bits() : 0;
  }
  /// Tail pass counts, for tests pinning the schedule shape.
  [[nodiscard]] std::size_t tail_radix16_stages() const noexcept;
  [[nodiscard]] std::size_t tail_radix4_stages() const noexcept;

  /// Shared, cached plan for the given size (default tuning). Thread-safe.
  static std::shared_ptr<const InplaceRadix2Plan> get(std::size_t n);

  /// Appends every cached immutable payload — permutation tables, twiddle
  /// packs, stage schedules, COBRA tile metadata — to `out`. The span list
  /// is the unit of plan-state sealing (common/seal.hpp) and of
  /// Phase::kPlanState fault addressing: a flipped bit in any span changes
  /// the registry seal and evicts the entry at the next verified acquire.
  void collect_state(StateSpans& out) const {
    out.add_vec(bit_reverse_);
    out.add_vec(twiddle_half_);
    out.add_vec(stages_);
    out.add_vec(stage_twiddles_);
    out.add_vec(tail_);
    if (cobra_) cobra_->collect_state(out);
  }

 private:
  void run_radix2(cplx* data, bool inverse) const;
  void run_radix4_reference(cplx* data, bool inverse) const;
  void run_optimized(cplx* data, bool inverse) const;
  OpenLastStage open_last_stages(cplx* data, bool opener_fused) const;
  void blocked_pass(cplx* data, bool inverse, bool skip_opener, double scale,
                    unsigned block_log2, std::size_t stage_count) const;
  void tail_pass(cplx* data, bool inverse, double scale) const;

  /// One fused (radix-4) stage of the reference schedule. The twiddles for
  /// butterfly j of the stage — w1 = omega_{len/2}^j and w2 = omega_{len}^j
  /// — are repacked contiguously in j (offsets into stage_twiddles_) so the
  /// SIMD kernels load them with unit stride instead of gathering from
  /// twiddle_half_ at a per-stage stride.
  struct FusedStage {
    std::size_t len;     ///< block length 2^(s+1)
    std::size_t w1_off;  ///< quarter = len/4 entries
    std::size_t w2_off;  ///< quarter entries
  };

  /// One whole-array pass of the optimized tail. A radix-16 pass is two
  /// consecutive radix-4 stages fused in registers; both kinds reference the
  /// shared stage_twiddles_ packs unchanged (a/b = inner/outer stage).
  struct TailStage {
    int radix;  ///< 4 or 16
    std::size_t len;
    std::size_t w1a_off;
    std::size_t w2a_off;
    std::size_t w1b_off;  ///< radix-16 only
    std::size_t w2b_off;  ///< radix-16 only
  };

  std::size_t n_;
  unsigned log2n_;
  unsigned block_log2_;
  std::vector<std::size_t> bit_reverse_;  // only entries with i < rev(i)
  std::vector<cplx> twiddle_half_;        // omega_n^k, k in [0, n/2)
  std::vector<FusedStage> stages_;        // fused radix-4 schedule
  std::vector<cplx> stage_twiddles_;      // packed per-stage w1/w2 runs
  std::size_t blocked_stage_count_;       // stages_ with len <= cache window
  std::size_t ref_blocked_stage_count_;   // same split at the PR 4 window
  std::vector<TailStage> tail_;           // optimized whole-array tail
  std::unique_ptr<CobraBitReversal> cobra_;  // null below the threshold
};

}  // namespace ftfft::fft
