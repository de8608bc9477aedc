#include "fft/inplace_radix2.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::fft {

namespace {
/// The cache window of the retained PR 4 schedule (2^15 elements = 512 KiB):
/// the reference path keeps it regardless of tuning so the baseline the
/// optimized path is measured against stays exactly what PR 4 shipped.
constexpr unsigned kReferenceBlockLog2 = 15;
}  // namespace

InplaceRadix2Plan::InplaceRadix2Plan(std::size_t n)
    : InplaceRadix2Plan(n, InplaceTuning{}) {}

InplaceRadix2Plan::InplaceRadix2Plan(std::size_t n,
                                     const InplaceTuning& tuning)
    : n_(n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument(
        "InplaceRadix2Plan: size must be a power of two");
  }
  log2n_ = log2_floor(n);
  block_log2_ = tuning.block_log2;
  // Store only the swap pairs (i, rev(i)) with i < rev(i) so the permutation
  // pass touches each element once.
  bit_reverse_.reserve(n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rev = reverse_bits(i, log2n_);
    if (i < rev) {
      bit_reverse_.push_back(i);
      bit_reverse_.push_back(rev);
    }
  }
  twiddle_half_.resize(n / 2 == 0 ? 1 : n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) twiddle_half_[k] = omega(n, k);
  // Pack the fused radix-4 schedule's per-stage twiddles contiguously in j
  // (see FusedStage). Values are copies out of twiddle_half_, so the scalar
  // backend computes bit-identical results to the historic strided reads.
  unsigned s = (log2n_ & 1u) ? 2 : 1;
  std::size_t total = 0;
  for (unsigned t = s; t + 1 <= log2n_; t += 2) {
    total += 2 * (std::size_t{1} << (t - 1));
  }
  stage_twiddles_.reserve(total);
  for (; s + 1 <= log2n_; s += 2) {
    const std::size_t quarter = std::size_t{1} << (s - 1);
    const std::size_t step1 = n_ >> s;
    const std::size_t step2 = n_ >> (s + 1);
    FusedStage st;
    st.len = std::size_t{1} << (s + 1);
    st.w1_off = stage_twiddles_.size();
    for (std::size_t j = 0; j < quarter; ++j) {
      stage_twiddles_.push_back(twiddle_half_[j * step1]);
    }
    st.w2_off = stage_twiddles_.size();
    for (std::size_t j = 0; j < quarter; ++j) {
      stage_twiddles_.push_back(twiddle_half_[j * step2]);
    }
    stages_.push_back(st);
  }
  // Split the schedule at the cache window: stages with len <= the window
  // run window-by-window in one streaming pass; the rest stream the whole
  // array once per pass and form the tail.
  const auto count_blocked = [this](unsigned block_log2) {
    const std::size_t window = n_ < (std::size_t{1} << block_log2)
                                   ? n_
                                   : (std::size_t{1} << block_log2);
    std::size_t count = 0;
    while (count < stages_.size() && stages_[count].len <= window) ++count;
    return count;
  };
  blocked_stage_count_ = count_blocked(block_log2_);
  ref_blocked_stage_count_ = count_blocked(kReferenceBlockLog2);
  // Regroup the tail: fuse consecutive radix-4 stage pairs into radix-16
  // passes (four radix-2 levels per stream over the array), leaving at most
  // one radix-4 stage when the tail count is odd. The fused pass runs both
  // stages' exact butterfly sequences on their unchanged twiddle packs, so
  // it is bit-identical to the reference while halving the streaming
  // passes. (Three-level radix-8 groups were rejected: they misalign with
  // the radix-4 pairing, and under FMA a pre-rotated twiddle cannot
  // reproduce the reference's (x*w)*(-i) rounding.)
  const std::size_t t4 = stages_.size() - blocked_stage_count_;
  if (t4 > 0) {
    std::size_t i = blocked_stage_count_;
    for (; i + 1 < stages_.size(); i += 2) {
      const FusedStage& a = stages_[i];
      const FusedStage& b = stages_[i + 1];
      assert(b.len == 4 * a.len);
      tail_.push_back(
          TailStage{16, b.len, a.w1_off, a.w2_off, b.w1_off, b.w2_off});
    }
    if (i < stages_.size()) {
      const FusedStage& st = stages_[i];
      tail_.push_back(TailStage{4, st.len, st.w1_off, st.w2_off, 0, 0});
    }
    assert(tail_.back().len == n_);
  }
  // COBRA permutation: only above the size threshold (the scattered
  // pair-swap walk is cache-resident and cheaper below it) and only with a
  // usable tile — the effective width after CobraBitReversal's own clamp
  // must be >= 2 so fused-opener groups never straddle a write-back run.
  if (log2n_ >= tuning.cobra_min_log2) {
    auto cobra =
        std::make_unique<CobraBitReversal>(log2n_, tuning.cobra_tile_bits);
    if (cobra->tile_bits() >= 2) cobra_ = std::move(cobra);
  }
}

void InplaceRadix2Plan::permute_pairswap(cplx* data) const {
  for (std::size_t p = 0; p + 1 < bit_reverse_.size(); p += 2) {
    std::swap(data[bit_reverse_[p]], data[bit_reverse_[p + 1]]);
  }
}

void InplaceRadix2Plan::permute_cobra(cplx* data) const {
  if (cobra_) {
    cobra_->permute(data);
  } else {
    permute_pairswap(data);
  }
}

void InplaceRadix2Plan::permute_cobra_fused_opener(cplx* data) const {
  if (!cobra_) {
    throw std::logic_error(
        "permute_cobra_fused_opener: plan is below the COBRA threshold");
  }
  cobra_->run(data,
              (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                            : CobraBitReversal::Opener::kRadix4First,
              /*inverse=*/false);
}

void InplaceRadix2Plan::run_radix2(cplx* data, bool inverse) const {
  permute_pairswap(data);
  // Stage s merges blocks of half = 2^(s-1). The twiddle for butterfly j of
  // stage s is omega_{2^s}^j = omega_n^(j * n / 2^s).
  for (unsigned s = 1; s <= log2n_; ++s) {
    const std::size_t len = std::size_t{1} << s;
    const std::size_t half = len >> 1;
    const std::size_t step = n_ >> s;  // twiddle index stride
    for (std::size_t base = 0; base < n_; base += len) {
      std::size_t tw = 0;
      for (std::size_t j = 0; j < half; ++j, tw += step) {
        const cplx w = inverse ? std::conj(twiddle_half_[tw])
                               : twiddle_half_[tw];
        const cplx u = data[base + j];
        const cplx t = cmul(data[base + j + half], w);
        data[base + j] = u + t;
        data[base + j + half] = u - t;
      }
    }
  }
}

void InplaceRadix2Plan::run_radix4_reference(cplx* data, bool inverse) const {
  permute_pairswap(data);
  // Fused stages s and s+1: one pass performs the radix-2 butterflies of
  // both levels while the four quarter elements are in registers. Within a
  // block of len = 2^(s+1), butterfly j uses
  //   w1 = omega_{2^s}^j       (level-s twiddle)
  //   w2 = omega_{2^(s+1)}^j   (level-(s+1) twiddle)
  //   omega_{2^(s+1)}^(j+q) = w2 * (-i)  [forward; +i inverse]
  // both repacked contiguously per stage at construction. The butterfly
  // passes run through the dispatched SIMD backend; when log2(n) is odd one
  // level is burned first with the twiddle-free radix-2 pass so the
  // remaining level count pairs up into radix-4 stages.
  //
  // Cache blocking: a stage with len <= the window only ever couples
  // elements inside an aligned window, so all such stages run to completion
  // window by window while the window is cache-hot — one streaming pass
  // over the array instead of one per stage. Blocks are independent, so
  // this reorders no butterfly's arithmetic: results are bit-identical to
  // the unblocked schedule. Stages with len > the window (couplings wider
  // than it) still run as whole-array radix-4 passes here; the optimized
  // path fuses them pairwise into radix-16 passes instead.
  blocked_pass(data, inverse, /*skip_opener=*/false, /*scale=*/1.0,
               kReferenceBlockLog2, ref_blocked_stage_count_);
  const auto& kernels = simd::fft_kernels();
  for (std::size_t i = ref_blocked_stage_count_; i < stages_.size(); ++i) {
    const FusedStage& st = stages_[i];
    kernels.radix4_stage(data, n_, st.len, stage_twiddles_.data() + st.w1_off,
                         stage_twiddles_.data() + st.w2_off, inverse, 1.0);
  }
}

void InplaceRadix2Plan::blocked_pass(cplx* data, bool inverse,
                                     bool skip_opener, double scale,
                                     unsigned block_log2,
                                     std::size_t stage_count) const {
  const auto& kernels = simd::fft_kernels();
  const std::size_t block =
      n_ < (std::size_t{1} << block_log2) ? n_
                                          : (std::size_t{1} << block_log2);
  // When the opener was fused into the permutation: for odd log2n it was the
  // radix-2 pair pass, for even log2n it was stages_[0] (len == 4).
  //
  // Stages run one sweep per radix-4 stage while the window is cache-hot.
  // (Fusing in-window pairs through the radix-16 kernel was measured and
  // rejected: sixteen live vectors spill on AVX2's sixteen registers, which
  // a DRAM-bound tail pass hides but a cache-resident sweep pays in full —
  // the blocked pass got ~30-60% slower.)
  const std::size_t first = (skip_opener && !(log2n_ & 1u)) ? 1 : 0;
  for (std::size_t off = 0; off < n_; off += block) {
    if (!skip_opener && (log2n_ & 1u)) {
      kernels.radix2_stage0(data + off, block);
    }
    for (std::size_t i = first; i < stage_count; ++i) {
      const FusedStage& st = stages_[i];
      if (st.len == 4) {
        kernels.radix4_first_stage(data + off, block, inverse);
      } else {
        // The fused 1/n scaling (scale != 1.0 only when the tail is empty
        // and n >= 8) lands on the last blocked stage of each window.
        const double s = (scale != 1.0 && i + 1 == stage_count) ? scale : 1.0;
        kernels.radix4_stage(data + off, block, st.len,
                             stage_twiddles_.data() + st.w1_off,
                             stage_twiddles_.data() + st.w2_off, inverse, s);
      }
    }
  }
}

void InplaceRadix2Plan::tail_pass(cplx* data, bool inverse,
                                  double scale) const {
  const auto& kernels = simd::fft_kernels();
  for (std::size_t i = 0; i < tail_.size(); ++i) {
    const TailStage& st = tail_[i];
    const double s = (scale != 1.0 && i + 1 == tail_.size()) ? scale : 1.0;
    if (st.radix == 4) {
      kernels.radix4_stage(data, n_, st.len,
                           stage_twiddles_.data() + st.w1a_off,
                           stage_twiddles_.data() + st.w2a_off, inverse, s);
    } else {
      kernels.radix16_stage(data, n_, st.len,
                            stage_twiddles_.data() + st.w1a_off,
                            stage_twiddles_.data() + st.w2a_off,
                            stage_twiddles_.data() + st.w1b_off,
                            stage_twiddles_.data() + st.w2b_off, inverse, s);
    }
  }
}

void InplaceRadix2Plan::run_optimized(cplx* data, bool inverse) const {
  const double scale = inverse ? 1.0 / static_cast<double>(n_) : 1.0;
  // n >= 8 guarantees the final stage is a radix-4/radix-16 pass that can
  // absorb the 1/n factor; below that the separate sweep is free anyway.
  const bool fuse_scale = inverse && n_ >= 8;
  bool opener_fused = false;
  if (cobra_) {
    cobra_->run(data,
                (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                              : CobraBitReversal::Opener::kRadix4First,
                inverse);
    opener_fused = true;
  } else {
    permute_pairswap(data);
  }
  blocked_pass(data, inverse, opener_fused,
               fuse_scale && tail_.empty() ? scale : 1.0, block_log2_,
               blocked_stage_count_);
  tail_pass(data, inverse, fuse_scale ? scale : 1.0);
  if (inverse && !fuse_scale && scale != 1.0) {
    for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
  }
}

void InplaceRadix2Plan::forward(cplx* data) const {
  run_optimized(data, false);
}

void InplaceRadix2Plan::forward_copy(const cplx* src, cplx* dst) const {
  bool opener_fused = false;
  // The out-of-place gather only pays when src AND dst together stay
  // cache-resident (log2n + 1 <= block_log2): there it deletes a whole
  // read+write sweep. Once the pair spills the cache window the gather's
  // doubled working set thrashes L2 against the in-place walk's single
  // array, and memcpy (streaming, no reuse needed) + in-place COBRA wins —
  // measured crossover matches the window boundary exactly.
  if (cobra_ && log2n_ + 1 <= block_log2_) {
    cobra_->run_copy(dst, src,
                     (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                                   : CobraBitReversal::Opener::kRadix4First,
                     /*inverse=*/false);
    opener_fused = true;
  } else if (cobra_) {
    std::memcpy(static_cast<void*>(dst), src, n_ * sizeof(cplx));
    permute_cobra_fused_opener(dst);
    opener_fused = true;
  } else {
    // Below the COBRA threshold the array is cache-resident and the
    // vectorized pair-swap walk beats a scalar per-element gather, so the
    // copy stays separate — it is cheap at these sizes.
    std::memcpy(static_cast<void*>(dst), src, n_ * sizeof(cplx));
    permute_pairswap(dst);
  }
  blocked_pass(dst, /*inverse=*/false, opener_fused, /*scale=*/1.0,
               block_log2_, blocked_stage_count_);
  tail_pass(dst, /*inverse=*/false, /*scale=*/1.0);
}

InplaceRadix2Plan::OpenLastStage InplaceRadix2Plan::open_last_stages(
    cplx* data, bool opener_fused) const {
  assert(n_ >= 8);
  const auto& kernels = simd::fft_kernels();
  const cplx* tw = stage_twiddles_.data();
  if (tail_.empty()) {
    // Single-window schedule: the final stage is the last blocked one
    // (len == n, never the opener at n >= 8), so the windowed pass just
    // stops one stage short.
    blocked_pass(data, /*inverse=*/false, opener_fused, /*scale=*/1.0,
                 block_log2_, blocked_stage_count_ - 1);
    const FusedStage& st = stages_.back();
    return OpenLastStage{4, tw + st.w1_off, tw + st.w2_off, nullptr, nullptr};
  }
  blocked_pass(data, /*inverse=*/false, opener_fused, /*scale=*/1.0,
               block_log2_, blocked_stage_count_);
  for (std::size_t i = 0; i + 1 < tail_.size(); ++i) {
    const TailStage& st = tail_[i];
    if (st.radix == 4) {
      kernels.radix4_stage(data, n_, st.len, tw + st.w1a_off,
                           tw + st.w2a_off, /*inverse=*/false, 1.0);
    } else {
      kernels.radix16_stage(data, n_, st.len, tw + st.w1a_off,
                            tw + st.w2a_off, tw + st.w1b_off,
                            tw + st.w2b_off, /*inverse=*/false, 1.0);
    }
  }
  const TailStage& st = tail_.back();
  if (st.radix == 4) {
    return OpenLastStage{4, tw + st.w1a_off, tw + st.w2a_off, nullptr,
                         nullptr};
  }
  return OpenLastStage{16, tw + st.w1a_off, tw + st.w2a_off,
                       tw + st.w1b_off, tw + st.w2b_off};
}

InplaceRadix2Plan::OpenLastStage InplaceRadix2Plan::forward_open_last(
    cplx* data) const {
  bool opener_fused = false;
  if (cobra_) {
    cobra_->run(data,
                (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                              : CobraBitReversal::Opener::kRadix4First,
                /*inverse=*/false);
    opener_fused = true;
  } else {
    permute_pairswap(data);
  }
  return open_last_stages(data, opener_fused);
}

InplaceRadix2Plan::OpenLastStage InplaceRadix2Plan::forward_copy_open_last(
    const cplx* src, cplx* dst) const {
  bool opener_fused = false;
  // Same permutation choice as forward_copy (and the same crossover
  // rationale); only the stage schedule afterwards differs.
  if (cobra_ && log2n_ + 1 <= block_log2_) {
    cobra_->run_copy(dst, src,
                     (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                                   : CobraBitReversal::Opener::kRadix4First,
                     /*inverse=*/false);
    opener_fused = true;
  } else if (cobra_) {
    std::memcpy(static_cast<void*>(dst), src, n_ * sizeof(cplx));
    permute_cobra_fused_opener(dst);
    opener_fused = true;
  } else {
    std::memcpy(static_cast<void*>(dst), src, n_ * sizeof(cplx));
    permute_pairswap(dst);
  }
  return open_last_stages(dst, opener_fused);
}

void InplaceRadix2Plan::inverse(cplx* data) const {
  run_optimized(data, true);
}

void InplaceRadix2Plan::forward_radix2(cplx* data) const {
  run_radix2(data, false);
}

void InplaceRadix2Plan::forward_radix4_reference(cplx* data) const {
  run_radix4_reference(data, false);
}

void InplaceRadix2Plan::inverse_radix4_reference(cplx* data) const {
  run_radix4_reference(data, true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
}

void InplaceRadix2Plan::blocked_stages_pass(cplx* data,
                                            bool include_opener) const {
  blocked_pass(data, /*inverse=*/false, /*skip_opener=*/!include_opener,
               /*scale=*/1.0, block_log2_, blocked_stage_count_);
}

void InplaceRadix2Plan::tail_stages_pass(cplx* data) const {
  tail_pass(data, /*inverse=*/false, /*scale=*/1.0);
}

std::size_t InplaceRadix2Plan::tail_radix16_stages() const noexcept {
  std::size_t c = 0;
  for (const TailStage& st : tail_) c += st.radix == 16 ? 1 : 0;
  return c;
}

std::size_t InplaceRadix2Plan::tail_radix4_stages() const noexcept {
  return tail_.size() - tail_radix16_stages();
}

namespace {
PlanRegistry<std::size_t, InplaceRadix2Plan> inplace_cache("inplace-plan");
}  // namespace

std::shared_ptr<const InplaceRadix2Plan> InplaceRadix2Plan::get(
    std::size_t n) {
  return inplace_cache.get_or_build(
      n, [n] { return std::make_shared<const InplaceRadix2Plan>(n); });
}

}  // namespace ftfft::fft
