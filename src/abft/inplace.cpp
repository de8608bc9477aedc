#include "abft/inplace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
        fftk_(k_),
        rev_k_(fftk_.bit_reversal()) {}

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
          x_, k_, blk_, opts_.optimized ? ck_ : nullptr, nm,
          s1_.data(), s2_.data(), e_in_.data(), syn1_.data());
    }
    if (inj() != nullptr) inj()->apply(Phase::kInputAfterChecksum, 0, x_, n_);
  }

  // Layer 1: blk_ sub-FFTs of size k_ at stride blk_, staged B =
  // plan_.layer1_batch() columns at a time (the 32768-element staging rule
  // the online scheme's layer 1 uses: B = 64 at k = 512, 128 at k = 256).
  // One tiled transpose (kTransposeTile) gathers the B strided columns into
  // `stage` (reading the source rows in bit-reversed order on the in-place
  // engine, so each staged column is the sub-FFT's permuted input); every
  // unit then runs exactly as if unbatched from its own staged column into
  // `ostage`, and one tiled transpose scatters the B verified results back.
  // A staged column is the Fig. 4 input backup: it stays untouched until
  // its own output has verified, so a retry never needs the array.
  void layer1() {
    const bool combined_ccg = opts_.memory_ft && opts_.optimized;
    const std::size_t batch = plan_.layer1_batch();
    const std::span<cplx> stage = frame_.take<cplx>(batch * k_);
    const std::span<cplx> ostage = frame_.take<cplx>(batch * k_);
    if (opts_.memory_ft) {
      b1_ = frame_.take_zeroed<cplx>(k_);
      b2_ = frame_.take_zeroed<cplx>(k_);
      e_blk_ = frame_.take_zeroed<double>(k_);
    }
    for (std::size_t i0 = 0; i0 < blk_; i0 += batch) {
      const std::size_t bw = std::min(batch, blk_ - i0);
      if (rev_k_ != nullptr) {
        transpose_tiled_rows(x_ + i0, blk_, rev_k_, stage.data(), k_, k_, bw);
      } else {
        transpose_tiled(x_ + i0, blk_, stage.data(), k_, k_, bw);
      }
      for (std::size_t il = 0; il < bw; ++il) {
        const std::size_t i = i0 + il;
        cplx* buf = stage.data() + il * k_;
        cplx* res = ostage.data() + il * k_;
        // Threshold scale: the CMCG slot energy under memory FT, else a
        // sweep in natural order.
        double energy = opts_.memory_ft ? e_in_[i] : 0.0;
        if (!(energy > 0.0)) {
          energy = 0.0;
          for (std::size_t s = 0; s < k_; ++s) {
            energy += norm2(buf[rev_k_ != nullptr ? rev_k_[s] : s]);
          }
        }
        SubFft unit{fftk_, buf, 1, res, combined_ccg ? s1_[i] : cplx{},
                    combined_ccg ? nullptr : ck_, eta_comp(energy),
                    &Stats::eta_m, inj(), Phase::kMFftOutput, i,
                    "inplace ABFT: layer-1 sub-FFT kept failing verification"};
        if (opts_.memory_ft) {
          // Repairs go to the slot in the caller's array and refresh the
          // staged column, as online's do (the scatter later overwrites the
          // slot). Combined checksums carry the large (rA) weights and take
          // the computational threshold, classic ones the memory threshold;
          // t > 1 decodes through the slot's syndromes.
          unit.repair = {
              {{s1_[i], s2_[i]}, syn1_.empty() ? nullptr : &syn1_[i],
               plan_.max_errors(), plan_.syndrome_nodes_k()},
              x_ + i, blk_, opts_.optimized ? ck_ : nullptr,
              opts_.optimized ? eta_comp(e_in_[i]) : eta_mem(e_in_[i]),
              /*count_check=*/true, /*record_eta=*/true,
              /*before_run=*/!opts_.optimized,
              "inplace ABFT: layer-1 input memory error not localizable"};
        }
        unit.perm = rev_k_;
        run_sub_fft(unit, opts_.max_retries, stats_);

        // Fold the verified output into the per-block checksums that
        // protect the window until layer 2 consumes the block.
        if (opts_.memory_ft) {
          checksum::fold_row(res, k_, nullptr, static_cast<double>(i),
                             b1_.data(), b2_.data(), e_blk_.data());
        }
      }
      transpose_tiled(ostage.data(), k_, x_ + i0, blk_, bw, k_);
    }
  }

  // Layers 2+3, block by block. Each block of blk_ = r*k contiguous
  // elements gets: MCV, TM1 (DMR), the r-point middle layer + TM2 (DMR,
  // skipped when r == 1), then r protected k-point sub-FFTs, whose results
  // go straight back into the block. The pass that writes the layer-3
  // inputs — TM1 when r == 1, else the middle layer — stores them in the
  // k-point engine's bit-reversed order when it has one.
  void layers2and3() {
    const std::span<cplx> bb = frame_.take<cplx>(blk_);  // staged block
    // Layer-3 inputs: the middle layer reads all of bb before any column
    // is complete, so it writes them to a block of their own.
    const std::span<cplx> l3 = r_ > 1 ? frame_.take<cplx>(blk_) : bb;
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
        repair_region({{b1_[b], b2_[b]}}, block, 1, nullptr, blk_,
                      threshold(plan_.eta_block().mem, e_blk_[b], blk_,
                                opts_.eta_override),
                      RepairTally::of(stats_, true),
                      "inplace ABFT: block memory error not localizable");
      }

      // TM1: element offset i of block b gets omega_n^(i*b). When r == 1
      // the block is the one layer-3 input, and its CCG and energy ride
      // the pass, in natural order.
      const bool direct = r_ == 1;
      checksum::SumEnergy tm1;
      stats_.dmr_mismatches += dmr_twiddle_multiply(
          *plan_.twiddles(), block, 1, bb.data(), blk_, b, 0, b, inj(),
          direct ? ck_ : nullptr, direct ? &tm1 : nullptr,
          direct ? rev_k_ : nullptr);

      if (!direct) middle_layer(b, bb.data(), l3.data());

      // Layer 3: r k-point sub-FFTs, each from its segment of l3 into its
      // segment of the block.
      for (std::size_t t = 0; t < r_; ++t) {
        cplx* src = l3.data() + t * k_;
        cplx* seg = block + t * k_;
        const std::size_t unit = b * r_ + t;
        const auto se =
            direct ? tm1
            : rev_k_ != nullptr
                ? checksum::weighted_sum_energy_at(ck_, src, rev_k_, k_)
                : checksum::weighted_sum_energy(ck_, src, k_);
        SubFft sub{fftk_, src, 1, seg, se.sum, nullptr,
                   eta_comp(se.energy), &Stats::eta_k, inj(),
                   Phase::kKFftOutput, unit,
                   "inplace ABFT: layer-3 sub-FFT kept failing verification"};
        sub.perm = rev_k_;
        run_sub_fft(sub, opts_.max_retries, stats_);
        // Output MCG for the postponed final verification (dual sums allow
        // direct correction — an in-place plan has no backup to recompute
        // from once the block is overwritten). With a multi-error budget
        // the segment also gets 2t syndrome moments: the output region is
        // the longest-lived stored state of the in-place scheme and direct
        // correction is its ONLY recovery, so this is where a burst would
        // otherwise be fatal.
        f1_[unit] = checksum::dual_weighted_sum(nullptr, seg, k_);
        if (!fsyn_.empty()) {
          fsyn_[unit] = checksum::syndrome_sum(nullptr, seg, k_, 1,
                                               plan_.syndrome_moments(),
                                               plan_.syndrome_nodes_k());
        }
        fccv_[unit] = se.sum;
        e_seg_[unit] = se.energy;
      }
    }
  }

  // DMR-protected middle layer: k_ r-point sub-FFTs at stride k_ within the
  // block, fused with the TM2 twiddle omega_blk^(i*t) = omega_n^(i*t*k).
  // Everything is computed twice — each pass reading its own table pair —
  // and voted with a third, table-free evaluation on mismatch. The voted
  // column i lands at offset rev_k_[i] (or i) of each layer-3 segment in
  // `out`.
  void middle_layer(std::size_t b, const cplx* bb, cplx* out) {
    const TwiddleTables& tw = *plan_.twiddles();
    cplx* in = mid_.data();
    cplx* out1 = in + r_;
    cplx* out2 = out1 + r_;
    cplx* out3 = out2 + r_;
    for (std::size_t i = 0; i < k_; ++i) {
      for (std::size_t s = 0; s < r_; ++s) in[s] = bb[s * k_ + i];
      auto pass = [&](cplx* dst, int copy) {
        dft::codelet_dft(r_, in, 1, dst, 1);
        for (std::size_t t = 0; t < r_; ++t) {
          const std::size_t j = i * t * k_;
          dst[t] = cmul(dst[t], copy < 2 ? tw.twiddle(j, copy)
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
      const std::size_t at = rev_k_ != nullptr ? rev_k_[i] : i;
      for (std::size_t t = 0; t < r_; ++t) out[t * k_ + at] = out1[t];
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
              seg, 1, nullptr, k_, eta_mem(e_seg_[unit]),
              RepairTally::of(stats_, false),
              "inplace ABFT: final output memory error not localizable",
              /*flagged=*/true);
        }
      }
      // Permutation-invariant guard over the swap pass below.
      presum = checksum::plain_sum(x_, n_);
    }

    krk_digit_reverse_permute(x_, k_, r_);

    if (opts_.memory_ft) {
      const cplx postsum = checksum::plain_sum(x_, n_);
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
  const std::uint32_t* rev_k_;    // its staged input order (null: natural)

  scratch::Frame frame_;          // holds every buffer below
  std::span<cplx> s1_, s2_;       // CMCG slots (layer-1 inputs)
  std::span<checksum::SyndromeSet> syn1_;  // per-slot 2t moments (t > 1)
  std::span<double> e_in_;
  std::span<cplx> b1_, b2_;       // per-block dual checksums (intermediate
                                  //   window): plain and indexed
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
