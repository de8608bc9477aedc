// Memory-error localization and correction from weighted moment sums
// (Reed-Solomon/Prony-style; see Roche 2018 for the theory of error
// correction in fast transforms). This is the one decoder every protected
// region goes through, at every correction budget.
//
// Storing 2t moments of the weighted data
//   S_m = sum_j u_j^m * w_j * x_j,   m = 0..2t-1,   u_j = j / n,
// pins down up to t simultaneous corruptions: with errors delta_i at
// indices j_i, the syndrome differences are d_m = sum_i E_i u_{j_i}^m
// (E_i = w_{j_i} * delta_i), i.e. a t-term exponential sum whose nodes are
// the roots of a degree-t error-locator polynomial. The decoder solves the
// Hankel key equation for the locator, extracts its roots (closed form for
// t <= 2, Durand-Kerner beyond), snaps them to integer indices within a
// confidence slack, recovers the error values from a small Vandermonde
// solve, and accepts only when the reconstruction reproduces every stored
// moment within tolerance.
//
// The dual checksums of section 4.1 are the t = 1 moment set: S_0 is the
// plain sum and S_1 the index-weighted sum times 1/n (dual_moments), and
// syndrome_sum generates a 2-moment set through the dual kernel, so a dual
// pair decodes here like any other.
//
// Nodes are normalized to [0, 1) rather than using raw indices j^m: the
// raw-moment Hankel/Vandermonde systems are catastrophically ill-conditioned
// at FFT sizes (j^7 at j ~ 2^20 overflows the significand), while normalized
// nodes keep every solve O(1)-conditioned and still separate adjacent
// indices at n = 2^20 well inside the 0.25 confidence slack.
//
// The round-off tolerance eta derived for the plain sum S_0 bounds every
// moment (|u_j| < 1 only shrinks the accumulated terms).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "checksum/dot.hpp"
#include "common/complex.hpp"

namespace ftfft::checksum {

/// Upper bound on t: 2t moments are stored, and the decoder's dense solves
/// are sized for this. 4 covers realistic burst upsets; raising it is a
/// constant change plus threshold re-validation.
inline constexpr int kMaxCorrectableErrors = 4;
inline constexpr int kMaxMoments = 2 * kMaxCorrectableErrors;

/// Locate/correct rounds of one repair session (repair_errors).
inline constexpr int kRepairRounds = 6;

/// Clamps a requested correction capacity into [1, kMaxCorrectableErrors].
[[nodiscard]] int clamp_max_errors(int requested) noexcept;

/// 2t weighted moment sums over one checksummed vector.
struct SyndromeSet {
  std::array<cplx, kMaxMoments> s{};  ///< s[m] = sum_j u_j^m w_j x_j
  int moments = 0;                    ///< 2t; 0 = not generated

  /// Folds one already-weighted contribution w_j * x_j of virtual index j
  /// into every moment (incremental generation, e.g. accumulating block
  /// residues as a virtual vector). inv_n must be 1.0 / n of the virtual
  /// vector so u = j * inv_n matches syndrome_sum's nodes.
  void accumulate(std::size_t j, cplx wx, double inv_n) noexcept {
    cplx p = wx;
    const double u = static_cast<double>(j) * inv_n;
    s[0] += p;
    for (int m = 1; m < moments; ++m) {
      p *= u;
      s[m] += p;
    }
  }

  SyndromeSet& operator+=(const SyndromeSet& o) noexcept {
    for (int m = 0; m < moments; ++m) s[m] += o.s[m];
    return *this;
  }
};

/// The dual pair over n elements as the t = 1 moment set:
/// s[0] = d.plain, s[1] = d.indexed * (1 / n).
[[nodiscard]] inline SyndromeSet dual_moments(const DualSum& d,
                                              std::size_t n) noexcept {
  SyndromeSet out;
  out.moments = 2;
  out.s[0] = d.plain;
  out.s[1] = d.indexed * (1.0 / static_cast<double>(n));
  return out;
}

/// Computes the 2t moment sums over x (w == nullptr means all-ones).
/// Two moments are dual_moments of dual_weighted_sum, so they match the
/// dual checksums the fused kernels store. Otherwise `nodes2` is the
/// plan-cached duplicated node table from shared_syndrome_nodes(n) — when
/// given and stride == 1 the reduction runs through the active SIMD
/// backend's syndrome_dot kernel; otherwise a scalar loop generates
/// u = j / n on the fly (identical values: both sides multiply by the same
/// precomputed 1/n).
[[nodiscard]] SyndromeSet syndrome_sum(const cplx* w, const cplx* x,
                                       std::size_t n, std::size_t stride,
                                       int moments,
                                       const double* nodes2 = nullptr);

/// Node table for the SIMD moment kernels: 2n doubles, entry pair
/// (2j, 2j+1) both holding u_j = j / n so a vector register load of the pair
/// multiplies the re/im slots of element j elementwise. Process-wide cached
/// ("syndrome-nodes" in plan_cache_stats()).
std::shared_ptr<const std::vector<double>> shared_syndrome_nodes(
    std::size_t n);

/// Outcome of multi-error localization.
struct MultiLocateResult {
  bool mismatch = false;  ///< some moment differs beyond eta
  bool valid = false;     ///< locations recovered with integer confidence
  int count = 0;          ///< number of errors located (<= t)
  std::array<std::size_t, kMaxCorrectableErrors> index{};
  std::array<cplx, kMaxCorrectableErrors> delta{};  ///< ADDED to elements
};

/// Compares stored vs current syndromes and attempts to locate up to
/// `max_errors` simultaneous corruptions. A non-finite difference counts as
/// a mismatch that cannot be located. Tries error counts e = 1..t in
/// ascending order and accepts the first hypothesis whose reconstruction
/// explains every moment within tolerance.
[[nodiscard]] MultiLocateResult locate_errors(const SyndromeSet& stored,
                                              const SyndromeSet& current,
                                              const cplx* w, std::size_t n,
                                              double eta, int max_errors);

/// Applies every located correction in place: data[index_i * stride] -=
/// delta_i.
void apply_corrections(cplx* data, std::size_t stride,
                       const MultiLocateResult& loc);

/// The corrections a repair session applied, one (index, delta) pair per
/// element it touched: delta sums everything subtracted from that element
/// over all rounds. Past kMaxCorrectableErrors distinct elements the list
/// stops growing and `complete` turns false.
struct Corrections {
  int count = 0;
  bool complete = true;
  std::array<std::size_t, kMaxCorrectableErrors> index{};
  std::array<cplx, kMaxCorrectableErrors> delta{};

  /// Records that `d` was subtracted from element j.
  void add(std::size_t j, cplx d) noexcept {
    for (int i = 0; i < count; ++i) {
      if (index[i] == j) {
        delta[i] += d;
        return;
      }
    }
    if (count == kMaxCorrectableErrors) {
      complete = false;
      return;
    }
    index[count] = j;
    delta[count] = d;
    ++count;
  }
};

/// Outcome of an iterative repair session.
struct MultiRepairResult {
  bool mismatch = false;   ///< syndromes disagreed at least once
  bool corrected = false;  ///< data now verifies against `stored`
  int errors = 0;          ///< errors corrected in the final decode
  Corrections applied;     ///< every correction, summed per element
};

/// Locates and corrects up to `max_errors` corrupted elements, iterating
/// until the recomputed syndromes match `stored` within eta. Iteration
/// matters: when the corruption is huge (an exponent-bit flip), the first
/// recovered delta carries an eps * |corruption| rounding residue that
/// itself exceeds eta; each round shrinks the residue by ~eps until it
/// vanishes below threshold. A corruption too large for that (a recomputed
/// moment is not finite, or one correction's rounding residue alone exceeds
/// eta — a top exponent-bit flip) that the rounds fail to repair is retried
/// once as an erasure: the element with the largest weighted term |w_j x_j|
/// (a non-finite one first) is rebuilt from S_0 and the other elements, and
/// kept only if every stored moment then matches within eta. Returns
/// corrected == false when the mismatch is not explainable by <= max_errors
/// corruptions (graceful degradation: detected, uncorrected).
[[nodiscard]] MultiRepairResult repair_errors(const SyndromeSet& stored,
                                              cplx* data, std::size_t stride,
                                              const cplx* w, std::size_t n,
                                              double eta, int max_errors,
                                              int max_iters = kRepairRounds,
                                              const double* nodes2 = nullptr);

}  // namespace ftfft::checksum
