// Iterative in-place FFT for power-of-two sizes.
//
// This is the "in-place, no auxiliary O(N) array" engine the parallel scheme
// of the paper relies on (section 5): bit-reversal permutation followed by
// butterfly stages over the data itself. It is also the library's
// power-of-two engine from fft::kInplaceEngineMinSize (512) points up:
// fft::Fft runs those sizes through forward_copy() / forward() / inverse(),
// so every protected scheme's sub-FFTs and the unprotected baseline share
// its kernels, and Bluestein's power-of-two convolution (fft/plan.hpp) runs
// here at every size. The recursive executor (fft/executor.hpp) keeps the
// smaller powers of two, where its codelet tree is faster, and every other
// size.
//
// One schedule serves every entry point:
//   1. Bit-reversal permutation. Below a size threshold, the pair-swap walk.
//      Above it, a COBRA cache-blocked bit-reversal (fft/bit_reversal.hpp)
//      with the twiddle-free opener stage fused into the tile write-back;
//      forward_copy() gathers straight from its source while source and
//      destination fit the cache window together. forward_bit_reversed()
//      skips this step: its input is already in bit-reversed order, and
//      its opener reads the source and writes the destination.
//   2. Fused radix-4 stages (two radix-2 levels each) whose blocks fit the
//      cache window, run window by window in one streaming pass.
//   3. The whole-array tail beyond the window, with consecutive radix-4
//      stages fused pairwise into radix-16 passes (four levels per pass;
//      three-level radix-8 groups would misalign with the radix-4 pairing
//      and could not reproduce its FMA rounding, while radix-16 reuses the
//      packed stage twiddles unchanged).
//   4. The inverse folds its 1/n scaling into the final stage's stores.
// None of this reorders a butterfly's arithmetic: the result is bitwise
// that of a plain unblocked radix-4 sweep followed by a separate 1/n pass,
// which tests/test_inplace_optimized.cpp checks on every backend against an
// oracle kept in the test tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/complex.hpp"
#include "fft/bit_reversal.hpp"

namespace ftfft::fft {

/// Memory-hierarchy tuning knobs of the in-place engine. Production plans
/// use these defaults; tests and benches construct plans with explicit
/// values to force every code path at small sizes.
struct InplaceTuning {
  /// log2 of the cache window (in elements) for stage blocking: stages with
  /// len <= 2^block_log2 run window-by-window in one streaming pass. The
  /// default 2^16 elements = 1 MiB (half the dev box's 2 MiB L2) measured
  /// fastest and leaves a 4-level tail at 2^20 — exactly one radix-16 pass.
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

/// Precomputed bit-reversal permutation + twiddle tables for one size.
/// Immutable after construction; shareable across threads.
class InplaceRadix2Plan {
 public:
  /// n must be a power of two, 1 <= n <= 2^32. Uses the default
  /// InplaceTuning.
  explicit InplaceRadix2Plan(std::size_t n);
  InplaceRadix2Plan(std::size_t n, const InplaceTuning& tuning);

  /// Forward DFT of data[0..n) in place, unit stride, not normalized.
  void forward(cplx* data) const;

  /// Out-of-place forward DFT (dst = FFT(src), src untouched, dst/src
  /// disjoint), bit-identical to copying src into dst and calling
  /// forward(). Above the COBRA threshold, while src and dst fit the cache
  /// window together, the bit-reversal gathers straight from src
  /// (CobraBitReversal::run_copy), which saves one full read+write sweep of
  /// the array against copy+forward.
  void forward_copy(const cplx* src, cplx* dst) const;

  /// Forward DFT of input already in bit-reversed order: dst = FFT(x) for
  /// src[i] = x[bit_reversal()[i]] (src/dst disjoint, src untouched),
  /// bitwise equal to forward_copy(x, dst). Only the butterflies run: the
  /// opener reads src and writes dst, so the copy and permutation pass of
  /// forward_copy() disappear. The protected schemes write each staged
  /// sub-FFT input in this order during a staging pass they make anyway.
  void forward_bit_reversed(const cplx* src, cplx* dst) const;

  /// The permutation forward_bit_reversed() expects: entry i is the
  /// log2(n)-bit reversal of i (an involution). n entries, sealed with the
  /// plan (collect_state).
  [[nodiscard]] const std::uint32_t* bit_reversal() const noexcept {
    return bit_reverse_.data();
  }

  /// Descriptor of the final whole-array butterfly pass withheld by
  /// forward_copy_open_last(): one radix-4 pass (radix == 4; twiddle packs
  /// w1a/w2a, n/4 entries) or one fused radix-16 pass (radix == 16; inner
  /// packs w1a/w2a, outer w1b/w2b) of block length n. Applying it through
  /// the matching kernel completes the forward transform exactly as
  /// forward_copy() would have.
  struct OpenLastStage {
    int radix;        ///< 4 or 16
    const cplx* w1a;
    const cplx* w2a;
    const cplx* w1b;  ///< radix-16 only, else nullptr
    const cplx* w2b;  ///< radix-16 only, else nullptr
  };

  /// forward_copy() minus the final whole-array butterfly pass; returns
  /// that pass's descriptor. The real r2c path completes the transform
  /// through the fused last-stage + Hermitian-unpack kernels (simd
  /// r2c_last_stage4/16), which deletes the separate unpack sweep — the
  /// reason the stage is handed back instead of executed. Requires n >= 8
  /// (smaller schedules end in an opener that cannot be split off).
  OpenLastStage forward_copy_open_last(const cplx* src, cplx* dst) const;

  /// Inverse DFT (1/n normalized) in place.
  void inverse(cplx* data) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

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
    out.add_vec(swap_pairs_);
    out.add_vec(stages_);
    out.add_vec(stage_twiddles_);
    out.add_vec(tail_);
    if (cobra_) cobra_->collect_state(out);
  }

 private:
  /// The permutation of every entry point but forward_bit_reversed():
  /// bit-reverses src into dst (src == dst runs in place). Below the COBRA
  /// threshold, a copy and the pair-swap walk; above it, the COBRA tiles,
  /// with the opener stage riding the tile write-back. Returns whether the
  /// opener ran, so the stage passes skip it.
  bool permute(const cplx* src, cplx* dst, bool inverse) const;
  /// The permutation and every butterfly pass, src -> dst.
  void run(const cplx* src, cplx* dst, bool inverse) const;
  void blocked_pass(cplx* data, bool inverse, bool skip_opener, double scale,
                    std::size_t stage_count) const;
  void tail_pass(cplx* data, bool inverse, double scale,
                 std::size_t stage_count) const;

  /// One fused (radix-4) stage of the schedule. The twiddles for
  /// butterfly j of the stage — w1 = omega_{len/2}^j and w2 = omega_{len}^j
  /// — are repacked contiguously in j (offsets into stage_twiddles_) so the
  /// SIMD kernels load them with unit stride instead of gathering from
  /// a table of omega_n^k at a per-stage stride.
  struct FusedStage {
    std::size_t len;     ///< block length 2^(s+1)
    std::size_t w1_off;  ///< quarter = len/4 entries
    std::size_t w2_off;  ///< quarter entries
  };

  /// One whole-array pass of the tail. A radix-16 pass is two
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
  std::vector<std::uint32_t> bit_reverse_;  // rev(i) for every i < n
  std::vector<std::uint32_t> swap_pairs_;   // (i, rev(i)), i < rev(i); no COBRA
  std::vector<FusedStage> stages_;        // fused radix-4 schedule
  std::vector<cplx> stage_twiddles_;      // packed per-stage w1/w2 runs
  std::size_t blocked_stage_count_;       // stages_ with len <= cache window
  std::vector<TailStage> tail_;           // whole-array tail passes
  std::unique_ptr<CobraBitReversal> cobra_;  // null below the threshold
};

}  // namespace ftfft::fft
