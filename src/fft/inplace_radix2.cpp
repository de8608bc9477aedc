#include "fft/inplace_radix2.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::fft {

InplaceRadix2Plan::InplaceRadix2Plan(std::size_t n)
    : InplaceRadix2Plan(n, InplaceTuning{}) {}

InplaceRadix2Plan::InplaceRadix2Plan(std::size_t n,
                                     const InplaceTuning& tuning)
    : n_(n) {
  if (!is_pow2(n) || log2_floor(n) > 32) {
    throw std::invalid_argument(
        "InplaceRadix2Plan: size must be a power of two up to 2^32");
  }
  log2n_ = log2_floor(n);
  block_log2_ = tuning.block_log2;
  bit_reverse_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    bit_reverse_[i] = static_cast<std::uint32_t>(reverse_bits(i, log2n_));
  }
  // Pack the fused radix-4 schedule's per-stage twiddles contiguously in j
  // (see FusedStage).
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
      stage_twiddles_.push_back(omega(n_, j * step1));
    }
    st.w2_off = stage_twiddles_.size();
    for (std::size_t j = 0; j < quarter; ++j) {
      stage_twiddles_.push_back(omega(n_, j * step2));
    }
    stages_.push_back(st);
  }
  // Split the schedule at the cache window: stages with len <= the window
  // run window-by-window in one streaming pass; the rest stream the whole
  // array once per pass and form the tail.
  const std::size_t window = std::min(n_, std::size_t{1} << block_log2_);
  blocked_stage_count_ = 0;
  while (blocked_stage_count_ < stages_.size() &&
         stages_[blocked_stage_count_].len <= window) {
    ++blocked_stage_count_;
  }
  // Regroup the tail: fuse consecutive radix-4 stage pairs into radix-16
  // passes (four radix-2 levels per stream over the array), leaving at most
  // one radix-4 stage when the tail count is odd. The fused pass runs both
  // stages' exact butterfly sequences on their unchanged twiddle packs, so
  // it is bit-identical to the two radix-4 passes while halving the
  // streaming passes. (Three-level radix-8 groups were rejected: they
  // misalign with the radix-4 pairing, and under FMA a pre-rotated twiddle
  // cannot reproduce the radix-4 stage's (x*w)*(-i) rounding.)
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
  // Below it, the pair-swap walk: only the pairs (i, rev(i)) with
  // i < rev(i), so the pass touches each element once.
  if (!cobra_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i < bit_reverse_[i]) {
        swap_pairs_.push_back(static_cast<std::uint32_t>(i));
        swap_pairs_.push_back(bit_reverse_[i]);
      }
    }
  }
}

bool InplaceRadix2Plan::permute(const cplx* src, cplx* dst,
                                bool inverse) const {
  const auto opener = (log2n_ & 1u) ? CobraBitReversal::Opener::kRadix2Pairs
                                    : CobraBitReversal::Opener::kRadix4First;
  // The out-of-place gather only pays when src AND dst together stay
  // cache-resident (log2n + 1 <= block_log2): there it deletes a whole
  // read+write sweep. Once the pair spills the cache window the gather's
  // doubled working set thrashes L2 against the in-place walk's single
  // array, and memcpy (streaming, no reuse needed) + in-place COBRA wins —
  // measured crossover matches the window boundary exactly.
  if (cobra_ && src != dst && log2n_ + 1 <= block_log2_) {
    cobra_->run_copy(dst, src, opener, inverse);
    return true;
  }
  if (src != dst) std::memcpy(static_cast<void*>(dst), src, n_ * sizeof(cplx));
  if (cobra_) {
    cobra_->run(dst, opener, inverse);
    return true;
  }
  // Below the COBRA threshold the array is cache-resident and the
  // vectorized pair-swap walk beats a scalar per-element gather, so the
  // copy stays separate — it is cheap at these sizes.
  for (std::size_t p = 0; p + 1 < swap_pairs_.size(); p += 2) {
    std::swap(dst[swap_pairs_[p]], dst[swap_pairs_[p + 1]]);
  }
  return false;
}

void InplaceRadix2Plan::blocked_pass(cplx* data, bool inverse,
                                     bool skip_opener, double scale,
                                     std::size_t stage_count) const {
  const auto& kernels = simd::fft_kernels();
  const std::size_t block = std::min(n_, std::size_t{1} << block_log2_);
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

void InplaceRadix2Plan::tail_pass(cplx* data, bool inverse, double scale,
                                  std::size_t stage_count) const {
  const auto& kernels = simd::fft_kernels();
  for (std::size_t i = 0; i < stage_count; ++i) {
    const TailStage& st = tail_[i];
    const double s = (scale != 1.0 && i + 1 == stage_count) ? scale : 1.0;
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

void InplaceRadix2Plan::run(const cplx* src, cplx* dst, bool inverse) const {
  const double scale = inverse ? 1.0 / static_cast<double>(n_) : 1.0;
  // n >= 8 guarantees the final stage is a radix-4/radix-16 pass that can
  // absorb the 1/n factor; below that the separate sweep is free anyway.
  const bool fuse_scale = inverse && n_ >= 8;
  const bool opener_fused = permute(src, dst, inverse);
  blocked_pass(dst, inverse, opener_fused,
               fuse_scale && tail_.empty() ? scale : 1.0,
               blocked_stage_count_);
  tail_pass(dst, inverse, fuse_scale ? scale : 1.0, tail_.size());
  if (inverse && !fuse_scale && scale != 1.0) {
    for (std::size_t i = 0; i < n_; ++i) dst[i] *= scale;
  }
}

void InplaceRadix2Plan::forward(cplx* data) const {
  run(data, data, /*inverse=*/false);
}

void InplaceRadix2Plan::forward_copy(const cplx* src, cplx* dst) const {
  run(src, dst, /*inverse=*/false);
}

void InplaceRadix2Plan::forward_bit_reversed(const cplx* src,
                                             cplx* dst) const {
  const auto& kernels = simd::fft_kernels();
  // The opener reads src and writes dst, so no copy or permutation pass
  // runs; its pairs/quadruples are independent, so one whole-array pass
  // computes what the windowed openers would.
  if (n_ == 1) {
    dst[0] = src[0];
  } else if (log2n_ & 1u) {
    kernels.radix2_stage0_from(dst, src, n_);
  } else {
    kernels.radix4_first_stage_from(dst, src, n_, /*inverse=*/false);
  }
  blocked_pass(dst, /*inverse=*/false, /*skip_opener=*/true, /*scale=*/1.0,
               blocked_stage_count_);
  tail_pass(dst, /*inverse=*/false, /*scale=*/1.0, tail_.size());
}

void InplaceRadix2Plan::inverse(cplx* data) const {
  run(data, data, /*inverse=*/true);
}

InplaceRadix2Plan::OpenLastStage InplaceRadix2Plan::forward_copy_open_last(
    const cplx* src, cplx* dst) const {
  assert(n_ >= 8);
  const bool opener_fused = permute(src, dst, /*inverse=*/false);
  const cplx* tw = stage_twiddles_.data();
  if (tail_.empty()) {
    // Single-window schedule: the final stage is the last blocked one
    // (len == n, never the opener at n >= 8), so the windowed pass just
    // stops one stage short.
    blocked_pass(dst, /*inverse=*/false, opener_fused, /*scale=*/1.0,
                 blocked_stage_count_ - 1);
    const FusedStage& st = stages_.back();
    return OpenLastStage{4, tw + st.w1_off, tw + st.w2_off, nullptr, nullptr};
  }
  blocked_pass(dst, /*inverse=*/false, opener_fused, /*scale=*/1.0,
               blocked_stage_count_);
  tail_pass(dst, /*inverse=*/false, /*scale=*/1.0, tail_.size() - 1);
  const TailStage& st = tail_.back();
  if (st.radix == 4) {
    return OpenLastStage{4, tw + st.w1a_off, tw + st.w2a_off, nullptr,
                         nullptr};
  }
  return OpenLastStage{16, tw + st.w1a_off, tw + st.w2a_off,
                       tw + st.w1b_off, tw + st.w2b_off};
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
