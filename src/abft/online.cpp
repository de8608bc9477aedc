#include "abft/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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
        fftk_(k_),
        rev_m_(opts.optimized ? fftm_.bit_reversal() : nullptr),
        rev_k_(fftk_.bit_reversal()) {}

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
          x_, m_, k_, opts_.optimized ? cm_ : nullptr, nm,
          s1_.data(), s2_.data(), e_in_.data(), syn1_.data());
    }
    if (inj() != nullptr) inj()->apply(Phase::kInputAfterChecksum, 0, x_, n_);
  }

  // ---------------------------------------------------------- first layer
  void first_layer() {
    if (opts_.memory_ft && opts_.optimized) {
      take_column_sums();
    } else if (opts_.memory_ft) {
      r1_ = frame_.take<DualSum>(k_);  // every slot written by its sub-FFT
      e_row_ = frame_.take<double>(k_);
    }

    // Section 4.4 staging: one tiled transpose (kTransposeTile) gathers a
    // batch of `batch` strided sub-FFT inputs into contiguous columns of
    // `bufblock`, then every checksum/FFT pass runs over contiguous
    // buffers. The plan resolves batch = 32768 / m (clamped to [min(4, k),
    // k]) once, i.e. a ~512 KiB staging block; 1 = unbuffered. On the
    // in-place engine the gather reads the source rows in bit-reversed
    // order, so each staged column is already the sub-FFT's permuted input.
    const std::size_t batch = plan_.layer1_batch();
    const std::span<cplx> bufblock =
        frame_.take<cplx>(opts_.optimized ? batch * m_ : 0);

    for (std::size_t i0 = 0; i0 < k_; i0 += batch) {
      const std::size_t bw = std::min(batch, k_ - i0);
      if (rev_m_ != nullptr) {
        transpose_tiled_rows(x_ + i0, k_, rev_m_, bufblock.data(), m_, m_,
                             bw);
      } else if (opts_.optimized) {
        transpose_tiled(x_ + i0, k_, bufblock.data(), m_, m_, bw);
      }
      for (std::size_t il = 0; il < bw; ++il) {
        const std::size_t i = i0 + il;
        // The staged contiguous column, or (naive) strided straight off x_.
        cplx* col = opts_.optimized ? bufblock.data() + il * m_ : x_ + i;
        const std::size_t stride = opts_.optimized ? 1 : k_;
        cplx* yi = out_ + i * m_;
        cplx ccg{0.0, 0.0};
        if (!opts_.memory_ft) {
          // No CMCG slot: the CCG dot also measures the threshold scale,
          // summed in natural order.
          const auto se =
              rev_m_ != nullptr
                  ? checksum::weighted_sum_energy_at(cm_, col, rev_m_, m_)
                  : checksum::weighted_sum_energy(cm_, col, m_, stride);
          ccg = se.sum;
          e_in_[i] = se.energy;
        } else if (opts_.optimized) {
          ccg = s1_[i];  // section 4.1: the stored combined checksum
        }
        // Naive memory FT reads the input a second time (strided) for the
        // CCG: the read the buffering optimization removes.
        SubFft unit{fftm_, col, stride, yi, ccg,
                    opts_.memory_ft && !opts_.optimized ? cm_ : nullptr,
                    threshold(plan_.eta_m().comp, e_in_[i], m_,
                              opts_.eta_override),
                    &Stats::eta_m, inj(), Phase::kMFftOutput, i,
                    "online ABFT: m-point sub-FFT kept failing verification"};
        if (opts_.memory_ft) {
          // Postponed discrimination on the slot in the caller's array (the
          // naive hierarchy, Fig. 2, also verifies it before use). At t > 1
          // its 2t-moment syndromes decode a burst that one wrong-index
          // write balancing the two duals would otherwise "explain".
          unit.repair = {
              {{s1_[i], s2_[i]}, syn1_.empty() ? nullptr : &syn1_[i],
               plan_.max_errors(), plan_.syndrome_nodes_m()},
              x_ + i, k_, opts_.optimized ? cm_ : nullptr,
              threshold(opts_.optimized ? plan_.eta_m().comp
                                        : plan_.eta_m().mem,
                        e_in_[i], m_, opts_.eta_override),
              /*count_check=*/true, /*record_eta=*/true,
              /*before_run=*/!opts_.optimized,
              "online ABFT: input memory error detected but not localizable"};
        }
        unit.perm = rev_m_;
        run_sub_fft(unit, opts_.max_retries, stats_);

        if (opts_.memory_ft && opts_.optimized) {
          // Section 4.3: fold the verified output into the second layer's
          // column sums while it is still cache-hot.
          fold_row(i, yi);
        } else if (opts_.memory_ft) {
          // Naive hierarchy: row checksums and energy over the verified
          // output; the column checksums are regenerated in a separate
          // pass later.
          const auto row = checksum::dual_weighted_sum_energy(nullptr, yi, m_);
          r1_[i] = row.sums;
          e_row_[i] = row.energy;
        }
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
    checksum::fold_row(yi, m_, nullptr, static_cast<double>(i), o1_.data(),
                       o2_.data(), e_mid_.data());
  }

  // ------------------------------------------------------- between layers
  void between_layers() {
    if (inj() != nullptr) inj()->apply(Phase::kIntermediate, 0, out_, n_);
    if (!opts_.memory_ft) return;

    if (!opts_.optimized) {
      // Fig. 2 regeneration pass: verify every row checksum, then build the
      // column checksums the second layer verifies against. This touches
      // every element a second time — the cost section 4.3 eliminates.
      take_column_sums();
      for (std::size_t i = 0; i < k_; ++i) {
        cplx* yi = out_ + i * m_;
        // The row may hold the very corruption being hunted: scale eta by
        // the energy of the verified sub-FFT output, so it cannot inflate
        // its own threshold.
        const double eta_mem =
            threshold(plan_.eta_m().mem, e_row_[i], m_, opts_.eta_override);
        repair_region({r1_[i]}, yi, 1, nullptr, m_, eta_mem,
                      RepairTally::of(stats_, true),
                      "online ABFT: intermediate memory error not localizable");
        fold_row(i, yi);
      }
      return;
    }

    // Section 4.2: the postponed final MCV recomputes a failing column from
    // the intermediate, kept column-major (column c at backup_ + c*k) in the
    // caller's input (paper's choice) or an n-element scratch block.
    // second_layer stages each block of columns straight into it.
    backup_ = opts_.backup_in_input ? x_ : frame_.take<cplx>(n_).data();
  }

  // ---------------------------------------------------------- second layer
  // Kept out of line, like run_sub_fft: GCC 12 inlines it once it is this
  // small, and that layout measured ~2% slower (perfbench online_comp_x and
  // online_mem_x on an AVX-512 Xeon).
  [[gnu::noinline]] void second_layer() {
    // Every column writes its own col_ccv_ / f1_ slot.
    tw_ = frame_.take<cplx>(k_);
    res_ = frame_.take<cplx>(k_);
    col_ccv_ = frame_.take<cplx>(m_);
    if (opts_.memory_ft && !opts_.optimized) f1_ = frame_.take<DualSum>(m_);

    // Stage `s` columns at a time (section 4.4 on the second layer, the
    // paper's "s k-FFTs"; the plan resolves s = 32768 / k): one tiled
    // transpose (kTransposeTile) loads the strided intermediate into a
    // column-major block, every per-column pass then runs contiguous, and
    // a second tiled transpose writes the verified results back to their
    // natural-order rows. With memory FT the block is gathered straight
    // into its place in the postponed backup (column c at backup_ + c*k),
    // which the MCV repair refreshes and the DMR twiddle reads; only
    // computational FT takes a staging block of its own.
    const std::size_t s = plan_.layer2_cols();
    const std::span<cplx> stage =
        frame_.take<cplx>(opts_.optimized && backup_ == nullptr ? s * k_ : 0);
    const std::span<cplx> ostage =
        frame_.take<cplx>(opts_.optimized ? s * k_ : 0);

    for (std::size_t c0 = 0; c0 < m_; c0 += s) {
      const std::size_t sc = std::min(s, m_ - c0);
      if (opts_.optimized) {
        cplx* block = backup_ != nullptr ? backup_ + c0 * k_ : stage.data();
        transpose_tiled(out_ + c0, m_, block, k_, k_, sc);
        for (std::size_t c = 0; c < sc; ++c) {
          process_column(c0 + c, block + c * k_, 1, ostage.data() + c * k_);
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
        // data) stay single-error: a multi-error burst inside one column is
        // not localizable and is refused here with UncorrectableError. The
        // postponed final MCV could not recover it either, as its backup is
        // this same staged column.
        repair_region({{o1_[c], o2_[c]}}, out_ + c, m_, nullptr, k_, eta_mem,
                      RepairTally::of(stats_, false),
                      "online ABFT: column memory error not localizable",
                      /*flagged=*/true);
        // Refresh the staged column (unstaged, col is the intermediate).
        if (opts_.optimized) {
          cplx* copy = const_cast<cplx*>(col);
          for (std::size_t i = 0; i < k_; ++i) copy[i] = out_[i * m_ + c];
        }
      }
    }

    // Twiddle (DMR), tw_[i] = col[i] * omega_n^(i*c), stored in the k-point
    // engine's bit-reversed order when it has one; the CCG and the column
    // energy ride the same pass, in natural order.
    checksum::SumEnergy se;
    stats_.dmr_mismatches +=
        dmr_twiddle_multiply(*plan_.twiddles(), col, stride, tw_.data(), k_, c,
                             0, c, inj(), ck_, &se, rev_k_);
    const cplx ccg = se.sum;
    const double eta =
        threshold(plan_.eta_k().comp, opts_.memory_ft ? e_mid_[c] : se.energy,
                  k_, opts_.eta_override);
    SubFft unit{fftk_, tw_.data(), 1, res, ccg, nullptr, eta, &Stats::eta_k,
                inj(), Phase::kKFftOutput, c,
                "online ABFT: k-point sub-FFT kept failing verification"};
    unit.perm = rev_k_;
    run_sub_fft(unit, opts_.max_retries, stats_);

    // Remember the column checksum for the postponed final verification;
    // the caller scatters `res` to the natural-order positions {c + m*j}.
    col_ccv_[c] = ccg;
    if (opts_.memory_ft && !opts_.optimized) {
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

      if (!opts_.optimized) {
        // Naive hierarchy: localize directly with the stored output duals.
        repair_region(
            {f1_[c]}, out_ + c, m_, nullptr, k_,
            threshold(plan_.eta_k().mem, e_mid_[c], k_, opts_.eta_override),
            RepairTally::of(stats_, false),
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
  fft::Fft fftm_, fftk_;             // layer-1 and layer-2 sub-FFT engines
  const std::uint32_t* rev_m_;       // staged layer-1 input order (null:
  const std::uint32_t* rev_k_;       //   natural); layer-2 input order

  scratch::Frame frame_;             // holds every buffer below
  std::span<cplx> s1_, s2_;          // CMCG slots per first-layer sub-FFT
  std::span<checksum::SyndromeSet> syn1_;  // per-slot 2t moments (t > 1)
  std::span<double> e_in_;           // per-sub-FFT input energy
  std::span<DualSum> r1_;            // naive row checksums of Y_i
  std::span<double> e_row_;          // naive row energies of verified Y_i
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
