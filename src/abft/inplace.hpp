// Protected in-place FFT (paper section 5).
//
// Parallel FFTs work in place, so a detected error cannot be fixed by
// restarting from the (overwritten) input. The paper's answer is a
// three-layer plan n = k * r * k:
//
//   layer 1: r*k k-point sub-FFTs (stride r*k)   - ABFT per sub-FFT, with an
//            O(k) gathered input buffer acting as the Fig. 4 backup;
//   layer 2: k^2  r-point sub-FFTs + twiddles    - DMR-protected (r is tiny:
//            1 or 2 for powers of two; a restart here is impossible in
//            place, which is exactly Fig. 5's failure scenario);
//   layer 3: r*k k-point sub-FFTs (contiguous)   - ABFT per sub-FFT with
//            output dual checksums for the postponed final verification.
//
// The layer structure is palindromic (k, r, k) on purpose: the digit-reversal
// permutation that restores natural output order is then an involution, so
// it runs in place as plain swaps. When r == 1 the middle layer vanishes
// (Fig. 6 "omitted when r = 1").
#pragma once

#include <cstddef>

#include "abft/options.hpp"
#include "common/complex.hpp"

namespace ftfft::abft {

/// Shape of the in-place plan for size n.
struct InplaceShape {
  std::size_t k = 0;  ///< outer sub-FFT size (largest k with k^2 | n)
  std::size_t r = 0;  ///< middle layer size, n = k*r*k
};

/// Computes the k*r*k split for n. Throws when k == 1 (no square factor:
/// nothing to decompose in place) or when 3 divides k (degenerate encoding).
[[nodiscard]] InplaceShape inplace_shape(std::size_t n);

/// In-place digit-reversal permutation for the palindromic radix vector
/// (k, r, k): position d0 + d1*k + d2*r*k swaps with d2 + d1*k + d0*r*k.
/// Self-inverse: for each d1 it is one tiled in-place transpose of a k x k
/// slice with leading dimension r*k. Exposed for tests and the parallel
/// local-adjustment step.
void krk_digit_reverse_permute(cplx* data, std::size_t k, std::size_t r);

/// Protected in-place forward DFT of data[0..n). Uses O(sqrt(n) * r)
/// auxiliary buffers plus a layer-1 staging block of at most 2 * 32768
/// elements. Honors opts.memory_ft, optimized (naive mode verifies every
/// block before use against classic checksums; optimized mode postpones into
/// the computational checks, whose rA weights double as the memory
/// checksum), eta_override, max_retries and injector; contiguous staging is
/// inherent to the algorithm.
/// Output is in natural order. Throws UncorrectableError when verification
/// cannot be satisfied within the fault model.
void inplace_online_transform(cplx* data, std::size_t n, const Options& opts,
                              Stats& stats);

class ProtectionPlan;

/// Same transform against a pre-resolved plan (Scheme::kOnlineInplace).
void inplace_online_transform(cplx* data, const ProtectionPlan& plan,
                              const Options& opts, Stats& stats);

}  // namespace ftfft::abft
