// Single-error localization and correction from dual checksums
// (paper sections 3.2 and 4.1).
//
// With stored sums S = (sum w_j x_j, sum j w_j x_j) and the same sums
// recomputed over possibly corrupted data, a single corrupted element
// x'_j = x_j + delta yields
//   d1 = w_j * delta          and   d2 = j * w_j * delta,
// so j = Re(d2 / d1) and delta = d1 / w_j. Round-off can push the recovered
// index off its integer (the paper's "Uncorrected" column in Table 6); the
// locate result therefore reports a confidence flag instead of asserting.
#pragma once

#include <cstddef>

#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/complex.hpp"

namespace ftfft::checksum {

/// Outcome of single-error localization.
struct LocateResult {
  bool mismatch = false;  ///< checksums differ beyond eta at all
  bool valid = false;     ///< index recovered with integer confidence
  std::size_t index = 0;  ///< corrupted element position (when valid)
  cplx delta{0.0, 0.0};   ///< value that was ADDED to the element
};

/// Compares stored vs current dual sums and attempts localization.
/// `w` are the generation weights (nullptr = all ones); `n` bounds the
/// recovered index; `eta` is the round-off tolerance on the plain sum.
[[nodiscard]] LocateResult locate_single_error(const DualSum& stored,
                                               const DualSum& current,
                                               const cplx* w, std::size_t n,
                                               double eta);

/// Applies the correction in place: data[index * stride] -= delta.
void apply_correction(cplx* data, std::size_t stride,
                      const LocateResult& loc);

/// Outcome of an iterative repair session.
struct RepairResult {
  bool mismatch = false;    ///< checksums disagreed at least once
  bool corrected = false;   ///< data now verifies against `stored`
  int iterations = 0;       ///< locate/correct rounds performed
  Corrections applied;      ///< every correction, summed per element
};

/// Locates and corrects a single corrupted element, iterating until the
/// recomputed checksums match `stored` within eta. Iteration matters: when
/// the corruption is huge (an exponent-bit flip), the first recovered delta
/// carries an eps * |corruption| rounding residue that itself exceeds eta;
/// each round shrinks the residue by ~eps until it vanishes below threshold.
/// A corruption too large for that (the sums overflow, or one correction's
/// rounding residue alone exceeds eta — a top exponent-bit flip) that the
/// rounds fail to repair is retried once as an erasure: the element with
/// the largest weighted term is rebuilt from the plain sum of the others
/// and kept only if both dual residuals then clear eta. Returns
/// corrected == false when the mismatch is not localizable (more than one
/// error, or an erasure rebuild that does not verify).
[[nodiscard]] RepairResult repair_single_error(const DualSum& stored,
                                               cplx* data, std::size_t stride,
                                               const cplx* w, std::size_t n,
                                               double eta, int max_iters = 4);

/// CMCG (section 3.2 input memory checksums) in one sweep over a row-major
/// rows x width block: slot i gets s1[i] = sum_r w_r x[r*width+i],
/// s2[i] = sum_r r w_r x[r*width+i] and energy[i] = sum_r |x[r*width+i]|^2
/// (w == nullptr: all ones), and with moments > 0 also its syndromes syn[i]
/// over the virtual index r. Each row goes through the dispatched fold_row
/// kernel. Outputs are overwritten; syn may be null when moments == 0.
void input_slot_checksums(const cplx* x, std::size_t rows, std::size_t width,
                          const cplx* w, int moments, cplx* s1, cplx* s2,
                          double* energy, SyndromeSet* syn);

}  // namespace ftfft::checksum
