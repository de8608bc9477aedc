#include "checksum/memory_checksum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ftfft::checksum {
namespace {

// How far the recovered index may sit from an integer before we declare the
// localization unreliable. 0.25 splits the distance to the neighboring
// index evenly between round-off slack and mislocation guard.
constexpr double kIndexSlack = 0.25;

constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

bool finite(const DualSum& s) {
  return std::isfinite(s.plain.real()) && std::isfinite(s.plain.imag()) &&
         std::isfinite(s.indexed.real()) && std::isfinite(s.indexed.imag());
}

}  // namespace

LocateResult locate_single_error(const DualSum& stored, const DualSum& current,
                                 const cplx* w, std::size_t n, double eta) {
  LocateResult out;
  const cplx d1 = current.plain - stored.plain;
  const cplx d2 = current.indexed - stored.indexed;
  if (std::abs(d1) <= eta) return out;  // within round-off: no mismatch
  out.mismatch = true;
  const cplx ratio = d2 / d1;
  const double idx = ratio.real();
  const double rounded = std::round(idx);
  // The imaginary part of a clean single-error ratio is zero; allow it the
  // same slack as the real part, scaled to the index magnitude.
  const double imag_slack = kIndexSlack * (1.0 + std::abs(rounded));
  // A NaN/Inf ratio (non-finite data or overflowed sums) passes none of the
  // comparisons below, so it is rejected first.
  if (!std::isfinite(idx) || !std::isfinite(ratio.imag()) ||
      std::abs(idx - rounded) > kIndexSlack ||
      std::abs(ratio.imag()) > imag_slack || rounded < 0.0 ||
      rounded >= static_cast<double>(n)) {
    return out;  // mismatch detected but not localizable
  }
  out.valid = true;
  out.index = static_cast<std::size_t>(rounded);
  out.delta = (w == nullptr) ? d1 : d1 / w[out.index];
  return out;
}

void apply_correction(cplx* data, std::size_t stride,
                      const LocateResult& loc) {
  if (loc.valid) data[loc.index * stride] -= loc.delta;
}

RepairResult repair_single_error(const DualSum& stored, cplx* data,
                                 std::size_t stride, const cplx* w,
                                 std::size_t n, double eta, int max_iters) {
  RepairResult out;
  // Set when iterating cannot converge: a recomputed sum overflowed, or a
  // correction is so large that its eps-relative rounding residue alone
  // exceeds eta (each round shrinks that residue by a factor of ~eps, so a
  // ~1e308 corruption needs some twenty rounds). A repair that then fails
  // falls back to rebuild_largest.
  bool too_large = false;
  const auto give_up = [&] {
    if (too_large) {
      out.corrected =
          rebuild_largest(stored.plain, data, stride, w, n, out.applied, [&] {
            const DualSum cur = dual_weighted_sum(w, data, n, stride);
            return std::abs(cur.plain - stored.plain) <= eta &&
                   std::abs(cur.indexed - stored.indexed) <= eta;
          });
    }
    return out;
  };
  for (int iter = 0; iter < max_iters; ++iter) {
    const DualSum cur = dual_weighted_sum(w, data, n, stride);
    too_large = too_large || !finite(cur);
    const LocateResult loc = locate_single_error(stored, cur, w, n, eta);
    if (!loc.mismatch) {
      out.corrected = out.mismatch;  // clean now (trivially true if never bad)
      return out;
    }
    out.mismatch = true;
    if (!loc.valid) return give_up();  // not localizable
    too_large = too_large ||
                kEpsilon * std::abs(cur.plain - stored.plain) > eta;
    apply_correction(data, stride, loc);
    out.applied.add(loc.index, loc.delta);
    ++out.iterations;
  }
  // Ran out of iterations: check whether the last correction landed.
  const DualSum cur = dual_weighted_sum(w, data, n, stride);
  out.corrected =
      !locate_single_error(stored, cur, w, n, eta).mismatch;
  return out.corrected ? out : give_up();
}

void input_slot_checksums(const cplx* x, std::size_t rows, std::size_t width,
                          const cplx* w, int moments, cplx* s1, cplx* s2,
                          double* energy, SyndromeSet* syn) {
  std::fill_n(s1, width, cplx{0.0, 0.0});
  std::fill_n(s2, width, cplx{0.0, 0.0});
  std::fill_n(energy, width, 0.0);
  if (moments > 0) {
    SyndromeSet init;
    init.moments = moments;
    std::fill_n(syn, width, init);
  }
  const double inv_rows = 1.0 / static_cast<double>(rows);
  // The unweighted CMCG keeps multiplying by 1 + 0i, as it always has: a
  // null weight would skip the product and move the signed-zero and
  // non-finite bits of its sums.
  const cplx one{1.0, 0.0};
  for (std::size_t r = 0; r < rows; ++r) {
    const cplx* wr = w != nullptr ? w + r : &one;
    const cplx* row = x + r * width;
    fold_row(row, width, wr, static_cast<double>(r), s1, s2, energy);
    if (moments > 0) {
      for (std::size_t i = 0; i < width; ++i) {
        syn[i].accumulate(r, cmul(*wr, row[i]), inv_rows);
      }
    }
  }
}

}  // namespace ftfft::checksum
