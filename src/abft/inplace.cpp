#include "abft/inplace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "abft/dmr.hpp"
#include "abft/protection_plan.hpp"
#include "abft/unit_check.hpp"
#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/scratch.hpp"
#include "common/tile_transpose.hpp"
#include "dft/codelets.hpp"
#include "fft/fft.hpp"

namespace ftfft::abft {
namespace {

using checksum::DualSum;
using fault::Phase;

/// All state of one protected in-place transform run; its buffers all live
/// on one frame of the thread's scratch workspace.
class InplaceRun {
 public:
  InplaceRun(cplx* data, const ProtectionPlan& plan, const Options& opts,
             Stats& stats)
      : x_(data),
        plan_(plan),
        n_(plan.n()),
        k_(plan.k()),
        r_(plan.r()),
        blk_(plan.block()),  // block length; also stride and count of layer 1
        ck_(plan.weights_k()),
        opts_(opts),
        stats_(stats),
        fftk_(k_) {}

  void run() {
    setup();
    layer1();
    if (inj() != nullptr) inj()->apply(Phase::kIntermediate, 0, x_, n_);
    layers2and3();
    finalize();
  }

 private:
  double eta_comp(double energy) const {
    return threshold(plan_.eta_k().comp, energy, k_, opts_.eta_override);
  }
  double eta_mem(double energy) const {
    return threshold(plan_.eta_k().mem, energy, k_, opts_.eta_override);
  }

  void setup() {
    if (inj() != nullptr) inj()->apply(Phase::kInputBeforeChecksum, 0, x_, n_);
    if (opts_.memory_ft) {
      // CMCG: slot i covers the layer-1 sub-FFT over x[s*blk + i]. With a
      // multi-error budget (t > 1) the same pass also folds each weighted
      // element into the slot's 2t syndrome moments (PR 9 escalation).
      const int nm = plan_.syndrome_moments();
      s1_ = frame_.take<cplx>(blk_);
      s2_ = frame_.take<cplx>(blk_);
      e_in_ = frame_.take<double>(blk_);
      syn1_ = frame_.take<checksum::SyndromeSet>(nm > 0 ? blk_ : 0);
      checksum::input_slot_checksums(
          x_, k_, blk_, opts_.combined_checksums ? ck_ : nullptr, nm,
          s1_.data(), s2_.data(), e_in_.data(), syn1_.data());
    }
    if (inj() != nullptr) inj()->apply(Phase::kInputAfterChecksum, 0, x_, n_);
  }

  // Layer 1: blk_ sub-FFTs of size k_ at stride blk_, staged B =
  // plan_.layer1_batch() columns at a time (the 32768-element staging rule
  // the online scheme's layer 1 uses: B = 64 at k = 512, 128 at k = 256).
  // One tiled transpose (kTransposeTile) gathers the B strided columns into
  // `stage`; every unit then runs exactly as if unbatched from its own
  // staged column into `ostage`, and one tiled transpose scatters the B
  // verified results back. A staged column is the Fig. 4 input backup: it
  // stays untouched until its own output has verified, so a retry never
  // needs the array.
  void layer1() {
    const bool combined_ccg = opts_.memory_ft && opts_.combined_checksums;
    const std::size_t batch = plan_.layer1_batch();
    const std::span<cplx> stage = frame_.take<cplx>(batch * k_);
    const std::span<cplx> ostage = frame_.take<cplx>(batch * k_);
    if (opts_.memory_ft) {
      b1_ = frame_.take_zeroed<DualSum>(k_);
      e_blk_ = frame_.take_zeroed<double>(k_);
    }
    for (std::size_t i0 = 0; i0 < blk_; i0 += batch) {
      const std::size_t bw = std::min(batch, blk_ - i0);
      transpose_tiled(x_ + i0, blk_, stage.data(), k_, k_, bw);
      for (std::size_t il = 0; il < bw; ++il) {
        layer1_unit(i0 + il, stage.data() + il * k_,
                    ostage.data() + il * k_, combined_ccg);
      }
      transpose_tiled(ostage.data(), k_, x_ + i0, blk_, bw, k_);
    }
  }

  // One protected layer-1 sub-FFT from its staged input column `buf` into
  // `res`, then the fold of the verified output into the per-block
  // checksums that protect the window until layer 2 consumes the block.
  void layer1_unit(std::size_t i, cplx* buf, cplx* res, bool combined_ccg) {
    // Threshold scale: the CMCG slot energy under memory FT, else a sweep.
    double energy = opts_.memory_ft ? e_in_[i] : 0.0;
    if (!(energy > 0.0)) {
      energy = 0.0;
      for (std::size_t s = 0; s < k_; ++s) energy += norm2(buf[s]);
    }

    // Naive hierarchy (Fig. 2): verify the input slot before use.
    if (!opts_.postpone_mcv) repair_input_slot(i, buf);
    cplx ccg =
        combined_ccg ? s1_[i] : checksum::weighted_sum(ck_, buf, k_);

    const double eta = eta_comp(energy);
    stats_.eta_m = std::max(stats_.eta_m, eta);
    verify_with_retry(
        stats_, &Stats::sub_fft_retries, opts_.max_retries,
        "inplace ABFT: layer-1 sub-FFT kept failing verification",
        [&] {
          fftk_.execute(buf, res);
          if (inj() != nullptr) inj()->apply(Phase::kMFftOutput, i, res, k_);
          return omega3_check(res, k_, ccg, eta);
        },
        [&] {
          if (!repair_input_slot(i, buf)) return false;
          if (!opts_.combined_checksums) {
            ccg = checksum::weighted_sum(ck_, buf, k_);
          }
          return true;
        });

    if (opts_.memory_ft) {
      const double id = static_cast<double>(i);
      for (std::size_t s = 0; s < k_; ++s) {
        b1_[s].plain += res[s];
        b1_[s].indexed += id * res[s];
        e_blk_[s] += norm2(res[s]);
      }
    }
  }

  /// Verifies the layer-1 input slot against its CMCG checksums using the
  /// gathered buffer and repairs a localized corruption (in the buffer —
  /// the array positions are about to be overwritten by the scatter).
  bool repair_input_slot(std::size_t i, cplx* buf) {
    if (!opts_.memory_ft) return false;
    // Combined checksums carry the large (rA) weights: computational-scale
    // threshold. Classic ones use the summation-scale memory threshold.
    const double eta =
        opts_.combined_checksums ? eta_comp(e_in_[i]) : eta_mem(e_in_[i]);
    stats_.eta_mem = std::max(stats_.eta_mem, eta);
    // Multi-error budget (t > 1): decode the slot's 2t-moment syndromes
    // instead of the dual-only repair, so a burst cannot be "explained" by
    // one wrong-index write that merely balances the two dual values —
    // every hypothesis must reproduce all 2t moments.
    return repair_region(
        {{s1_[i], s2_[i]}, syn1_.empty() ? nullptr : &syn1_[i],
         plan_.max_errors(), plan_.syndrome_nodes_k()},
        buf, 1, opts_.combined_checksums ? ck_ : nullptr, k_, eta,
        opts_.max_retries, RepairTally::of(stats_, true),
        "inplace ABFT: layer-1 input memory error not localizable");
  }

  // Layers 2+3, block by block. Each block of blk_ = r*k contiguous
  // elements gets: MCV, TM1 (DMR), the r-point middle layer + TM2 (DMR,
  // skipped when r == 1), then r protected k-point sub-FFTs.
  void layers2and3() {
    const std::span<cplx> bb = frame_.take<cplx>(blk_);  // staged block
    const std::span<cplx> seg = frame_.take<cplx>(k_);   // layer-3 result
    if (r_ > 1) mid_ = frame_.take<cplx>(4 * r_);
    // Every layer-3 unit writes its own slot of the per-segment state.
    f1_ = frame_.take<DualSum>(k_ * r_);
    fccv_ = frame_.take<cplx>(k_ * r_);
    e_seg_ = frame_.take<double>(k_ * r_);
    if (opts_.memory_ft && plan_.syndrome_moments() > 0) {
      fsyn_ = frame_.take<checksum::SyndromeSet>(k_ * r_);
    }

    for (std::size_t b = 0; b < k_; ++b) {
      cplx* block = x_ + b * blk_;
      if (opts_.memory_ft) {
        repair_region({b1_[b]}, block, 1, nullptr, blk_,
                      threshold(plan_.eta_block().mem, e_blk_[b], blk_,
                                opts_.eta_override),
                      opts_.max_retries, RepairTally::of(stats_, true),
                      "inplace ABFT: block memory error not localizable");
      }

      // TM1: element offset i of block b gets omega_n^(i*b).
      stats_.dmr_mismatches += dmr_twiddle_multiply(
          *plan_.twiddles(), block, 1, bb.data(), blk_, b, 0, b, inj());

      if (r_ > 1) middle_layer(b, bb.data());

      // Layer 3: r contiguous k-point sub-FFTs within the staged block.
      for (std::size_t t = 0; t < r_; ++t) {
        cplx* src = bb.data() + t * k_;
        const std::size_t unit = b * r_ + t;
        const auto se = checksum::weighted_sum_energy(ck_, src, k_);
        const cplx ccg = se.sum;
        const double eta = eta_comp(se.energy);
        stats_.eta_k = std::max(stats_.eta_k, eta);
        verify_with_retry(
            stats_, &Stats::sub_fft_retries, opts_.max_retries,
            "inplace ABFT: layer-3 sub-FFT kept failing verification", [&] {
              fftk_.execute(src, seg.data());
              if (inj() != nullptr) {
                inj()->apply(Phase::kKFftOutput, unit, seg.data(), k_);
              }
              return omega3_check(seg.data(), k_, ccg, eta);
            });
        // Output MCG for the postponed final verification (dual sums allow
        // direct correction — an in-place plan has no backup to recompute
        // from once the block is overwritten). With a multi-error budget
        // the segment also gets 2t syndrome moments: the output region is
        // the longest-lived stored state of the in-place scheme and direct
        // correction is its ONLY recovery, so this is where a burst would
        // otherwise be fatal.
        f1_[unit] = checksum::dual_weighted_sum(nullptr, seg.data(), k_);
        if (!fsyn_.empty()) {
          fsyn_[unit] = checksum::syndrome_sum(nullptr, seg.data(), k_, 1,
                                               plan_.syndrome_moments(),
                                               plan_.syndrome_nodes_k());
        }
        fccv_[unit] = ccg;
        e_seg_[unit] = se.energy;
        std::memcpy(src, seg.data(), k_ * sizeof(cplx));
      }
      std::memcpy(block, bb.data(), blk_ * sizeof(cplx));
    }
  }

  // DMR-protected middle layer: k_ r-point sub-FFTs at stride k_ within the
  // block, fused with the TM2 twiddle omega_blk^(i*t) = omega_n^(i*t*k).
  // Everything is computed twice — each pass reading its own table pair —
  // and voted with a third, table-free evaluation on mismatch.
  void middle_layer(std::size_t b, cplx* bb) {
    const TwiddleTables& tw = *plan_.twiddles();
    cplx* in = mid_.data();
    cplx* out1 = in + r_;
    cplx* out2 = out1 + r_;
    cplx* out3 = out2 + r_;
    for (std::size_t i = 0; i < k_; ++i) {
      for (std::size_t s = 0; s < r_; ++s) in[s] = bb[s * k_ + i];
      auto pass = [&](cplx* out, int copy) {
        dft::codelet_dft(r_, in, 1, out, 1);
        for (std::size_t t = 0; t < r_; ++t) {
          const std::size_t j = i * t * k_;
          out[t] = cmul(out[t], copy < 2 ? tw.twiddle(j, copy)
                                         : tw.exact_twiddle(j));
        }
      };
      pass(out1, 0);
      if (inj() != nullptr) {
        inj()->apply(Phase::kMiddleDmrCopy, b * k_ + i, out1, r_);
      }
      pass(out2, 1);
      for (std::size_t t = 0; t < r_; ++t) {
        if (out1[t] != out2[t]) {
          // Third evaluation + majority vote.
          pass(out3, 2);
          out1[t] = (out2[t] == out3[t]) ? out2[t] : out1[t];
          ++stats_.dmr_mismatches;
        }
      }
      for (std::size_t t = 0; t < r_; ++t) bb[t * k_ + i] = out1[t];
    }
  }

  // Final verification + digit-reversal permutation to natural order.
  void finalize() {
    if (inj() != nullptr) inj()->apply(Phase::kFinalOutput, 0, x_, n_);
    cplx presum{0, 0};
    if (opts_.memory_ft) {
      // Verify every layer-3 segment against its saved checksum; localize
      // and correct through the output duals.
      for (std::size_t b = 0; b < k_; ++b) {
        for (std::size_t t = 0; t < r_; ++t) {
          const std::size_t unit = b * r_ + t;
          cplx* seg = x_ + b * blk_ + t * k_;
          const cplx rx = checksum::omega3_weighted_sum(seg, k_);
          ++stats_.verifications;
          if (std::abs(rx - fccv_[unit]) <= eta_comp(e_seg_[unit])) continue;
          // Multi-error budget (t > 1): the in-place output region has no
          // backup, so direct syndrome decode is the only recovery. Using it
          // for every count (not just as an escalation) also prevents a
          // burst from being mis-"corrected" by a one-element write that
          // balances the two duals but not the higher moments.
          repair_region(
              {f1_[unit], fsyn_.empty() ? nullptr : &fsyn_[unit],
               plan_.max_errors(), plan_.syndrome_nodes_k()},
              seg, 1, nullptr, k_, eta_mem(e_seg_[unit]), opts_.max_retries,
              RepairTally::of(stats_, false),
              "inplace ABFT: final output memory error not localizable",
              /*flagged=*/true);
        }
      }
      // Permutation-invariant guard over the swap pass below.
      for (std::size_t t = 0; t < n_; ++t) presum += x_[t];
    }

    krk_digit_reverse_permute(x_, k_, r_);

    if (opts_.memory_ft) {
      cplx postsum{0, 0};
      for (std::size_t t = 0; t < n_; ++t) postsum += x_[t];
      ++stats_.verifications;
      const double eta = threshold(plan_.eta_whole().mem,
                                   checksum::energy(x_, n_), n_,
                                   opts_.eta_override);
      if (std::abs(postsum - presum) > eta) {
        uncorrectable(
            "inplace ABFT: memory fault during the final permutation "
            "(detect-only window)");
      }
    }
  }

  fault::Injector* inj() const { return opts_.injector; }

  cplx* x_;
  const ProtectionPlan& plan_;
  std::size_t n_, k_, r_, blk_;
  const cplx* ck_;                // outer checksum vector, owned by the plan
  const Options& opts_;
  Stats& stats_;
  fft::Fft fftk_;                 // layer-1 and layer-3 sub-FFT engine

  scratch::Frame frame_;          // holds every buffer below
  std::span<cplx> s1_, s2_;       // CMCG slots (layer-1 inputs)
  std::span<checksum::SyndromeSet> syn1_;  // per-slot 2t moments (t > 1)
  std::span<double> e_in_;
  std::span<DualSum> b1_;         // per-block checksums (intermediate window)
  std::span<double> e_blk_;
  std::span<cplx> mid_;           // middle layer (r > 1): gather, 2 DMR
                                  //   copies and the vote, r each
  std::span<DualSum> f1_;         // per-segment output duals
  std::span<checksum::SyndromeSet> fsyn_;  // per-segment moments (t > 1)
  std::span<cplx> fccv_;          // per-segment computational checksums
  std::span<double> e_seg_;
};

}  // namespace

InplaceShape inplace_shape(std::size_t n) {
  const auto [k, r] = square_split(n);
  if (k < 2) {
    throw std::invalid_argument(
        "inplace ABFT: n has no square factor, nothing to decompose");
  }
  if (k % 3 == 0) {
    throw std::invalid_argument(
        "inplace ABFT: outer sub-FFT size divisible by 3 degenerates the "
        "checksum encoding");
  }
  return {k, r};
}

void krk_digit_reverse_permute(cplx* data, std::size_t k, std::size_t r) {
  // For each middle digit d1 the swap set is the transpose of the k x k
  // slice data[d1*k + d2*r*k + d0] (row d2, column d0).
  for (std::size_t d1 = 0; d1 < r; ++d1) {
    transpose_square_inplace(data + d1 * k, k, r * k);
  }
}

void inplace_online_transform(cplx* data, const ProtectionPlan& plan,
                              const Options& opts, Stats& stats) {
  detail::require(plan.scheme() == Scheme::kOnlineInplace,
                  "inplace_online_transform: plan was built for another "
                  "scheme");
  InplaceRun run(data, plan, opts, stats);
  run.run();
}

void inplace_online_transform(cplx* data, std::size_t n, const Options& opts,
                              Stats& stats) {
  detail::require(n >= 4, "inplace_online_transform: n must be >= 4");
  const auto plan = ProtectionPlan::get(n, Scheme::kOnlineInplace, opts);
  inplace_online_transform(data, *plan, opts, stats);
}

}  // namespace ftfft::abft
