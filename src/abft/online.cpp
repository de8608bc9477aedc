#include "abft/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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
#include "fft/fft.hpp"

namespace ftfft::abft {
namespace {

using checksum::DualSum;
using fault::Phase;

/// All state of one protected online transform run. The immutable
/// per-size setup (split, checksum vectors, threshold coefficients,
/// staging layout) comes from the shared ProtectionPlan; this class holds
/// only the per-call mutable state, whose buffers all live on one frame of
/// the thread's scratch workspace.
class OnlineRun {
 public:
  OnlineRun(cplx* in, cplx* out, const ProtectionPlan& plan,
            const Options& opts, Stats& stats)
      : x_(in),
        out_(out),
        plan_(plan),
        n_(plan.n()),
        m_(plan.m()),
        k_(plan.k()),
        cm_(plan.weights_m()),
        ck_(plan.weights_k()),
        opts_(opts),
        stats_(stats),
        fftm_(m_),
        fftk_(k_) {
    // Postponing the first-layer MCV into the CCV is only sound when the
    // memory checksum *is* the computational one (section 4.1 + 4.2).
    postpone1_ = opts_.postpone_mcv && opts_.combined_checksums;
  }

  void run() {
    setup();
    first_layer();
    between_layers();
    second_layer();
    finalize();
  }

 private:
  // ---------------------------------------------------------------- setup
  void setup() {
    if (inj() != nullptr) inj()->apply(Phase::kInputBeforeChecksum, 0, x_, n_);

    // Without memory FT each sub-FFT writes its own energy slot.
    e_in_ = frame_.take<double>(k_);
    if (opts_.memory_ft) {
      // CMCG: one contiguous pass over the input builds the per-sub-FFT
      // dual checksums (slot i covers elements x[t*k + i]) and, with a
      // multi-error budget (t > 1), each slot's 2t syndrome moments.
      const int nm = plan_.syndrome_moments();
      s1_ = frame_.take<cplx>(k_);
      s2_ = frame_.take<cplx>(k_);
      syn1_ = frame_.take<checksum::SyndromeSet>(nm > 0 ? k_ : 0);
      checksum::input_slot_checksums(
          x_, m_, k_, opts_.combined_checksums ? cm_ : nullptr, nm,
          s1_.data(), s2_.data(), e_in_.data(), syn1_.data());
    }
    if (inj() != nullptr) inj()->apply(Phase::kInputAfterChecksum, 0, x_, n_);
  }

  // ---------------------------------------------------------- first layer
  void first_layer() {
    if (opts_.memory_ft && opts_.incremental_mcg) {
      take_column_sums();
    } else if (opts_.memory_ft) {
      r1_ = frame_.take<DualSum>(k_);  // every slot written by its sub-FFT
    }

    // Section 4.4 staging: one tiled transpose (kTransposeTile) gathers a
    // batch of `batch` strided sub-FFT inputs into contiguous columns of
    // `bufblock`, then every checksum/FFT pass runs over contiguous
    // buffers. The plan resolves batch = 32768 / m (clamped to [min(4, k),
    // k]) once, i.e. a ~512 KiB staging block; 1 = unbuffered.
    const std::size_t batch = plan_.layer1_batch();
    const std::span<cplx> bufblock =
        frame_.take<cplx>(opts_.contiguous_buffering ? batch * m_ : 0);

    for (std::size_t i0 = 0; i0 < k_; i0 += batch) {
      const std::size_t bw = std::min(batch, k_ - i0);
      if (opts_.contiguous_buffering) {
        transpose_tiled(x_ + i0, k_, bufblock.data(), m_, m_, bw);
      }
      for (std::size_t il = 0; il < bw; ++il) {
        run_sub_fft(i0 + il,
                    opts_.contiguous_buffering ? bufblock.data() + il * m_
                                               : nullptr);
      }
    }
  }

  // One protected m-point sub-FFT. `buf` is the staged contiguous input
  // (nullptr = unbuffered strided execution straight off x_). Kept out of
  // line, like second_layer: GCC 12 inlines both once they are this small,
  // and that layout measured ~2% slower (perfbench online_comp_x and
  // online_mem_x on an AVX-512 Xeon).
  [[gnu::noinline]] void run_sub_fft(std::size_t i, cplx* buf) {
    cplx ccg{0.0, 0.0};  // reference value the CCV compares against
    const bool have_cmcg = opts_.memory_ft;
    const bool combined_ccg = have_cmcg && opts_.combined_checksums;

    if (have_cmcg && !postpone1_) {
      // Naive hierarchy (Fig. 2): verify the input slot before use.
      if (verify_and_repair_input(i) && buf != nullptr) regather(i, buf);
    }

    if (combined_ccg) {
      // Section 4.1: the stored combined checksum IS the CCG product.
      ccg = s1_[i];
    } else {
      // Unbuffered, the CCG reads the input strided a second time: the
      // expensive read the buffering optimization removes.
      const auto se = buf != nullptr
                          ? checksum::weighted_sum_energy(cm_, buf, m_)
                          : checksum::weighted_sum_energy(cm_, x_ + i, m_, k_);
      ccg = se.sum;
      if (!have_cmcg) e_in_[i] = se.energy;
    }

    const double eta =
        threshold(plan_.eta_m().comp, e_in_[i], m_, opts_.eta_override);
    stats_.eta_m = std::max(stats_.eta_m, eta);
    cplx* yi = out_ + i * m_;
    verify_with_retry(
        stats_, &Stats::sub_fft_retries, opts_.max_retries,
        "online ABFT: m-point sub-FFT kept failing verification",
        [&] {
          if (buf != nullptr) {
            fftm_.execute(buf, yi);
          } else {
            fftm_.execute_strided(x_ + i, k_, yi, 1);
          }
          if (inj() != nullptr) inj()->apply(Phase::kMFftOutput, i, yi, m_);
          return omega3_check(yi, m_, ccg, eta);
        },
        [&] {
          // Postponed discrimination: is the input slot itself corrupted?
          if (!opts_.memory_ft || !verify_and_repair_input(i)) return false;
          if (buf != nullptr) regather(i, buf);
          if (!opts_.combined_checksums) {
            // Classic checksums: the CCG product must be rebuilt from the
            // repaired input.
            ccg = buf != nullptr ? checksum::weighted_sum(cm_, buf, m_)
                                 : checksum::weighted_sum(cm_, x_ + i, m_, k_);
          }
          return true;
        });

    if (opts_.memory_ft) {
      if (opts_.incremental_mcg) {
        // Section 4.3: fold this sub-FFT's verified output into the second
        // layer's column sums while it is still cache-hot.
        fold_row(i, yi);
      } else {
        // Naive hierarchy: row checksums over this sub-FFT's output; the
        // column checksums are regenerated in a separate pass later.
        r1_[i] = checksum::dual_weighted_sum(nullptr, yi, m_);
      }
    }
  }

  // Zeroed column checksums and energies of the intermediate.
  void take_column_sums() {
    o1_ = frame_.take_zeroed<cplx>(m_);
    o2_ = frame_.take_zeroed<cplx>(m_);
    e_mid_ = frame_.take_zeroed<double>(m_);
  }

  // Folds verified sub-FFT output row i into the column checksums and
  // column energies the second layer verifies against.
  void fold_row(std::size_t i, const cplx* yi) {
    const double id = static_cast<double>(i);
    for (std::size_t c = 0; c < m_; ++c) {
      o1_[c] += yi[c];
      o2_[c] += id * yi[c];
      e_mid_[c] += norm2(yi[c]);
    }
  }

  // Refreshes the staged copy of sub-FFT i's input (rare repair path).
  void regather(std::size_t i, cplx* buf) {
    for (std::size_t t = 0; t < m_; ++t) buf[t] = x_[t * k_ + i];
  }

  /// Recomputes the stored input checksums of sub-FFT slot i over the
  /// (strided) input and repairs a localized memory error (iterating until
  /// the residual clears the threshold). Returns true if a corruption was
  /// found and fixed.
  bool verify_and_repair_input(std::size_t i) {
    const double eta_mem = threshold(
        opts_.combined_checksums ? plan_.eta_m().comp : plan_.eta_m().mem,
        e_in_[i], m_, opts_.eta_override);
    stats_.eta_mem = std::max(stats_.eta_mem, eta_mem);
    // Multi-error budget (t > 1): decode the slot's 2t-moment syndromes
    // instead of the dual-only repair. The duals carry two values, so a
    // multi-error burst whose residual ratio lands near an integer can be
    // "explained" by one wrong-index write the dual repair accepts; the
    // syndrome decoder checks every hypothesis against all 2t moments and
    // decodes the burst at its true count.
    return repair_region(
        {{s1_[i], s2_[i]}, syn1_.empty() ? nullptr : &syn1_[i],
         plan_.max_errors(), plan_.syndrome_nodes_m()},
        x_ + i, k_, opts_.combined_checksums ? cm_ : nullptr, m_, eta_mem,
        opts_.max_retries, RepairTally::of(stats_, true),
        "online ABFT: input memory error detected but not localizable");
  }

  // ------------------------------------------------------- between layers
  void between_layers() {
    if (inj() != nullptr) inj()->apply(Phase::kIntermediate, 0, out_, n_);
    if (!opts_.memory_ft) return;

    if (!opts_.incremental_mcg) {
      // Fig. 2 regeneration pass: verify every row checksum, then build the
      // column checksums the second layer verifies against. This touches
      // every element a second time — the cost section 4.3 eliminates.
      take_column_sums();
      for (std::size_t i = 0; i < k_; ++i) {
        cplx* yi = out_ + i * m_;
        // The row may hold the very corruption being hunted: use the
        // outlier-robust energy so eta is not inflated by it.
        const double eta_mem =
            threshold(plan_.eta_m().mem, checksum::robust_energy(yi, m_), m_,
                      opts_.eta_override);
        repair_region({r1_[i]}, yi, 1, nullptr, m_, eta_mem,
                      opts_.max_retries, RepairTally::of(stats_, true),
                      "online ABFT: intermediate memory error not localizable");
        fold_row(i, yi);
      }
    }

    if (opts_.postpone_mcv) {
      // Section 4.2: the postponed final MCV recomputes a failing column
      // from the intermediate, kept column-major (column c at backup_ + c*k)
      // in the caller's input (paper's choice) or an n-element scratch
      // block. second_layer copies each verified staged block into it;
      // unstaged, one tiled transpose fills it here and the column MCV
      // refreshes the slot of a column it repairs.
      backup_ = opts_.backup_in_input ? x_ : frame_.take<cplx>(n_).data();
      if (!opts_.contiguous_buffering) {
        transpose_tiled(out_, m_, backup_, k_, k_, m_);
      }
    }
  }

  // ---------------------------------------------------------- second layer
  [[gnu::noinline]] void second_layer() {
    // Every column writes its own col_ccv_ / f1_ slot.
    tw_ = frame_.take<cplx>(k_);
    res_ = frame_.take<cplx>(k_);
    col_ccv_ = frame_.take<cplx>(m_);
    if (opts_.memory_ft && !opts_.postpone_mcv) f1_ = frame_.take<DualSum>(m_);

    // Stage `s` columns at a time (section 4.4 on the second layer, the
    // paper's "s k-FFTs"; the plan resolves s = 32768 / k): one tiled
    // transpose (kTransposeTile) loads the strided intermediate into a
    // column-major block, every per-column pass then runs contiguous, and
    // a second tiled transpose writes the verified results back to their
    // natural-order rows. A done block of staged (and MCV-repaired) columns
    // is the postponed backup.
    const std::size_t s = plan_.layer2_cols();
    const std::span<cplx> stage =
        frame_.take<cplx>(opts_.contiguous_buffering ? s * k_ : 0);
    const std::span<cplx> ostage =
        frame_.take<cplx>(opts_.contiguous_buffering ? s * k_ : 0);

    for (std::size_t c0 = 0; c0 < m_; c0 += s) {
      const std::size_t sc = std::min(s, m_ - c0);
      if (opts_.contiguous_buffering) {
        transpose_tiled(out_ + c0, m_, stage.data(), k_, k_, sc);
        for (std::size_t c = 0; c < sc; ++c) {
          process_column(c0 + c, stage.data() + c * k_, 1,
                         ostage.data() + c * k_);
        }
        if (backup_ != nullptr) {
          std::copy_n(stage.data(), sc * k_, backup_ + c0 * k_);
        }
        // out[j*m + c] gets result element j of column c.
        transpose_tiled(ostage.data(), k_, out_ + c0, m_, sc, k_);
      } else {
        for (std::size_t c = 0; c < sc; ++c) {
          process_column(c0 + c, out_ + c0 + c, m_, res_.data());
          // Unstaged: scatter the result column directly.
          for (std::size_t j = 0; j < k_; ++j) {
            out_[(c0 + c) + m_ * j] = res_[j];
          }
        }
      }
    }
  }

  // Processes column c: plain-sum MCV, DMR twiddle, CCG, protected k-point
  // FFT; memory FT scales both thresholds by e_mid_[c]. The verified result
  // lands in `res` (contiguous); the caller writes it back.
  void process_column(std::size_t c, const cplx* col, std::size_t stride,
                      cplx* res) {
    if (opts_.memory_ft) {
      // Column MCV against the (incrementally or regenerated) checksums:
      // plain sum only, the repair recomputes the localization sum on a
      // mismatch (section 4.2). The scale comes from the verified layer-1
      // outputs, so a corrupted column cannot inflate its own threshold.
      const double eta_mem =
          threshold(plan_.eta_k().mem, e_mid_[c], k_, opts_.eta_override);
      stats_.eta_mem = std::max(stats_.eta_mem, eta_mem);
      ++stats_.verifications;
      if (std::abs(checksum::plain_sum(col, k_, stride) - o1_[c]) > eta_mem) {
        // Mismatch: repair the authoritative intermediate iteratively, then
        // refresh the staged copy. Derived checksums (these column duals
        // are accumulated from sub-FFT outputs, not generated over stored
        // data) deliberately stay single-error: a multi-error burst in the
        // short-lived intermediate is already caught by the postponed final
        // MCV, whose recovery recomputes the column from the backup.
        repair_region({{o1_[c], o2_[c]}}, out_ + c, m_, nullptr, k_, eta_mem,
                      opts_.max_retries, RepairTally::of(stats_, false),
                      "online ABFT: column memory error not localizable",
                      /*flagged=*/true);
        // Refresh the staged column or, unstaged, its slot in the backup.
        cplx* copy = col != out_ + c   ? const_cast<cplx*>(col)
                     : backup_ != nullptr ? backup_ + c * k_
                                          : nullptr;
        if (copy != nullptr) {
          for (std::size_t i = 0; i < k_; ++i) copy[i] = out_[i * m_ + c];
        }
      }
    }

    // Twiddle (DMR), tw_[i] = col[i] * omega_n^(i*c); the CCG and the
    // column energy ride the same pass.
    checksum::SumEnergy se;
    stats_.dmr_mismatches +=
        dmr_twiddle_multiply(*plan_.twiddles(), col, stride, tw_.data(), k_, c,
                             0, c, inj(), ck_, &se);
    const cplx ccg = se.sum;
    const double eta =
        threshold(plan_.eta_k().comp, opts_.memory_ft ? e_mid_[c] : se.energy,
                  k_, opts_.eta_override);
    stats_.eta_k = std::max(stats_.eta_k, eta);
    verify_with_retry(
        stats_, &Stats::sub_fft_retries, opts_.max_retries,
        "online ABFT: k-point sub-FFT kept failing verification", [&] {
          fftk_.execute(tw_.data(), res);
          if (inj() != nullptr) inj()->apply(Phase::kKFftOutput, c, res, k_);
          return omega3_check(res, k_, ccg, eta);
        });

    // Remember the column checksum for the postponed final verification;
    // the caller scatters `res` to the natural-order positions {c + m*j}.
    col_ccv_[c] = ccg;
    if (opts_.memory_ft && !opts_.postpone_mcv) {
      f1_[c] = checksum::dual_weighted_sum(nullptr, res, k_);
    }
  }

  // -------------------------------------------------------------- finalize
  void finalize() {
    if (inj() != nullptr) inj()->apply(Phase::kFinalOutput, 0, out_, n_);
    if (!opts_.memory_ft) return;

    // Final MCV: per-column omega_3-weighted sums of the output (one sweep,
    // bucketed by j mod 3) against the saved CCGs, eta from e_mid_[c].
    const std::span<cplx> b0 = frame_.take_zeroed<cplx>(m_);
    const std::span<cplx> b1 = frame_.take_zeroed<cplx>(m_);
    const std::span<cplx> b2 = frame_.take_zeroed<cplx>(m_);
    for (std::size_t j = 0; j < k_; ++j) {
      const cplx* row = out_ + j * m_;
      cplx* bucket = ((j % 3 == 0) ? b0 : (j % 3 == 1) ? b1 : b2).data();
      for (std::size_t c = 0; c < m_; ++c) bucket[c] += row[c];
    }
    const cplx w1 = omega3_pow(1);
    const cplx w2 = omega3_pow(2);
    for (std::size_t c = 0; c < m_; ++c) {
      const cplx rx = b0[c] + cmul(w1, b1[c]) + cmul(w2, b2[c]);
      const double eta =
          threshold(plan_.eta_k().comp, e_mid_[c], k_, opts_.eta_override);
      ++stats_.verifications;
      if (std::abs(rx - col_ccv_[c]) <= eta) continue;

      if (!opts_.postpone_mcv) {
        // Naive hierarchy: localize directly with the stored output duals.
        repair_region(
            {f1_[c]}, out_ + c, m_, nullptr, k_,
            threshold(plan_.eta_k().mem, e_mid_[c], k_, opts_.eta_override),
            opts_.max_retries, RepairTally::of(stats_, false),
            "online ABFT: final output memory error not localizable",
            /*flagged=*/true);
        continue;
      }
      ++stats_.mem_errors_detected;

      // Postponed hierarchy: recompute the column from its backup column
      // (twiddle + k-FFT + verify + scatter). The recomputation runs the
      // same engine and buffers process_column used, so a repaired column
      // is bit-identical to a never-corrupted run.
      checksum::SumEnergy se;
      stats_.dmr_mismatches += dmr_twiddle_multiply(
          *plan_.twiddles(), backup_ + c * k_, 1, tw_.data(), k_, c, 0, c,
          nullptr, ck_, &se);
      fftk_.execute(tw_.data(), res_.data());
      const cplx rx2 = checksum::omega3_weighted_sum(res_.data(), k_);
      if (std::abs(rx2 - se.sum) > eta) {
        uncorrectable("online ABFT: column recomputation failed verification");
      }
      for (std::size_t j = 0; j < k_; ++j) out_[c + m_ * j] = res_[j];
      ++stats_.mem_errors_corrected;
      ++stats_.sub_fft_retries;
    }
  }

  fault::Injector* inj() const { return opts_.injector; }

  cplx* x_;
  cplx* out_;
  const ProtectionPlan& plan_;
  std::size_t n_, m_, k_;
  const cplx* cm_;                   // input checksum vectors (sizes m, k),
  const cplx* ck_;                   //   owned by the shared plan
  const Options& opts_;
  Stats& stats_;
  bool postpone1_ = false;
  fft::Fft fftm_, fftk_;             // layer-1 and layer-2 sub-FFT engines

  scratch::Frame frame_;             // holds every buffer below
  std::span<cplx> s1_, s2_;          // CMCG slots per first-layer sub-FFT
  std::span<checksum::SyndromeSet> syn1_;  // per-slot 2t moments (t > 1)
  std::span<double> e_in_;           // per-sub-FFT input energy
  std::span<DualSum> r1_;            // naive row checksums of Y_i
  std::span<cplx> o1_, o2_;          // column checksums of the intermediate
  std::span<double> e_mid_;          // per-column verified layer-1 energy
  std::span<cplx> tw_, res_;         // layer-2 twiddled column and result
  std::span<cplx> col_ccv_;          // saved per-column CCG for final MCV
  std::span<DualSum> f1_;            // naive output duals per column
  cplx* backup_ = nullptr;           // column-major intermediate backup
};

}  // namespace

void online_transform(cplx* in, cplx* out, const ProtectionPlan& plan,
                      const Options& opts, Stats& stats) {
  detail::require(plan.scheme() == Scheme::kOnline,
                  "online_transform: plan was built for another scheme");
  OnlineRun run(in, out, plan, opts, stats);
  run.run();
}

void online_transform(cplx* in, cplx* out, std::size_t n, const Options& opts,
                      Stats& stats) {
  detail::require(n >= 4, "online_transform: n must be >= 4 and composite");
  const auto plan = ProtectionPlan::get(n, Scheme::kOnline, opts);
  online_transform(in, out, *plan, opts, stats);
}

}  // namespace ftfft::abft
