// Checksum dot products: the primitives every verification step reduces to.
//
// CCG/CCV in the paper are weighted sums sum_j w_j x_j; the memory-fault
// machinery additionally needs the index-weighted companion
// sum_j j * w_j * x_j computed in the same pass (section 4.1 combines both
// so the dual sum reuses the product w_j * x_j, costing 4 extra real ops per
// element instead of a second full pass).
//
// Summation order: stride-1 calls dispatch to the active SIMD backend
// (src/simd), and every backend — including the scalar reference — splits
// the reduction across multiple independent accumulators to break the
// floating-point add dependency chain. Results therefore differ from a
// naive left-to-right sum (and between backends) by ordinary re-association
// round-off, O(eps * sum |terms|). The detection thresholds derived in
// roundoff/model.hpp already bound accumulation error of this shape with a
// safety margin, so the eta coefficients hold unchanged under any backend,
// including FMA-contracted ones.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/complex.hpp"

namespace ftfft::checksum {

/// sum_j w[j] * x[j * stride], j in [0, n).
[[nodiscard]] cplx weighted_sum(const cplx* w, const cplx* x, std::size_t n,
                                std::size_t stride = 1);

/// Plain and index-weighted sums computed together.
struct DualSum {
  cplx plain{0.0, 0.0};    ///< sum_j w_j x_j
  cplx indexed{0.0, 0.0};  ///< sum_j j * w_j * x_j

  DualSum& operator+=(const DualSum& o) {
    plain += o.plain;
    indexed += o.indexed;
    return *this;
  }
};

/// Dual sum with explicit weights w (w == nullptr means all-ones weights,
/// i.e. the classic r1/r2 memory checksums of section 3.2).
[[nodiscard]] DualSum dual_weighted_sum(const cplx* w, const cplx* x,
                                        std::size_t n, std::size_t stride = 1);

/// Plain sum_j x_j: the all-ones checksum without its localization half.
/// Four add chains in a fixed order; stride 1 runs the dispatched kernel,
/// which keeps that order lane by lane, so every stride and backend gives
/// the same bits.
[[nodiscard]] cplx plain_sum(const cplx* x, std::size_t n,
                             std::size_t stride = 1);

/// Energy sum_j |x_j|^2 over a strided range; used to estimate the input
/// scale that feeds the detection thresholds.
[[nodiscard]] double energy(const cplx* x, std::size_t n,
                            std::size_t stride = 1);

/// sum_j omega_3^j x_j computed with the 3-cycle trick: bucket the elements
/// by j mod 3 and apply the two nontrivial cube-root weights once at the
/// end. This is the paper's 2-complex-multiplication CCV (section 7.1.1).
[[nodiscard]] cplx omega3_weighted_sum(const cplx* x, std::size_t n,
                                       std::size_t stride = 1);

/// weighted_sum fused with an energy accumulation over the same pass, so
/// threshold estimation costs no extra sweep of the data.
struct SumEnergy {
  cplx sum{0.0, 0.0};
  double energy = 0.0;
};
[[nodiscard]] SumEnergy weighted_sum_energy(const cplx* w, const cplx* x,
                                            std::size_t n,
                                            std::size_t stride = 1);

/// weighted_sum_energy of x[idx[0]], x[idx[1]], ..., x[idx[n-1]]: bitwise
/// the unit-stride sweep over that gathered copy, so a buffer held in a
/// permuted order (a bit-reversed staged sub-FFT input) yields the sums of
/// its natural order without being put back into it.
[[nodiscard]] SumEnergy weighted_sum_energy_at(const cplx* w, const cplx* x,
                                               const std::uint32_t* idx,
                                               std::size_t n);

/// dual_weighted_sum fused with energy (w == nullptr means all-ones).
struct DualSumEnergy {
  DualSum sums;
  double energy = 0.0;
};
[[nodiscard]] DualSumEnergy dual_weighted_sum_energy(const cplx* w,
                                                     const cplx* x,
                                                     std::size_t n,
                                                     std::size_t stride = 1);

/// dst = src (contiguous, non-overlapping) copied in one pass fused with the
/// all-ones dual checksum of the stream and, when `energy` is non-null, its
/// energy sum_j |src_j|^2. The sums are bit-identical to
/// dual_weighted_sum(nullptr, src, n) and the energy to energy(src, n) on
/// the same backend (the kernels share the accumulator structures); the
/// parallel transpose uses this so the message checksum and its threshold
/// scale ride the pack/unpack copy instead of further sweeps.
DualSum copy_dual_sum(cplx* dst, const cplx* src, std::size_t n,
                      double* energy = nullptr);

/// Slot checksum fold of one row of a row-major block (the CMCG of section
/// 3.2, the section-4.3 column sums, the sharded FFT1 fold): for i < width,
/// with p = w[0] * row[i] (p = row[i] when w is null), a1[i] += p,
/// a2[i] += r * p and e[i] += |row[i]|^2. Dispatched; no product is fused
/// into its add, so the slots are bitwise those of the plain loop on every
/// backend.
void fold_row(const cplx* row, std::size_t width, const cplx* w, double r,
              cplx* a1, cplx* a2, double* e);

}  // namespace ftfft::checksum
