// Cache-tiled transposes: the one data-movement primitive behind every
// protected-scheme gather and scatter (section 4.4 contiguous buffering,
// the in-place scheme's layer-1 staging and its k*r*k digit reversal). The
// layer-1 gathers read their source rows in bit-reversed order
// (transpose_tiled_rows), so the staged sub-FFT inputs need no permutation.
//
// A naive strided gather touches one element per cache line and, at
// power-of-two strides, maps every access of a column to the same L1 set.
// Walking the matrix in kTransposeTile x kTransposeTile tiles keeps both
// sides of a tile (2 x 4 KiB of complex<double>) cache-resident, so each
// line is fetched once and fully used. Within a tile every write runs
// along a contiguous destination row and the strided side is only read:
// strided stores at a power-of-two stride are what stalls. Pure copies:
// the results are bitwise identical to the naive loops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/complex.hpp"

namespace ftfft {

/// Tile edge in elements. On a 48 KiB-L1 Xeon, 16 had the lowest total
/// time over the 2^16 and 2^18 staging gathers and scatters (8 and 32 were
/// 2-7% slower) and the fastest k*r*k digit reversal. A complex<double>
/// already moves as one 16-byte access, so an in-register SIMD permute
/// has nothing to gain.
inline constexpr std::size_t kTransposeTile = 16;

namespace detail {

/// One tile (rows, cols <= kTransposeTile) of transpose_tiled: contiguous
/// writes along each destination row, strided reads.
inline void transpose_tile(const cplx* src, std::size_t ss, cplx* dst,
                           std::size_t ds, std::size_t rows,
                           std::size_t cols) {
  for (std::size_t c = 0; c < cols; ++c) {
    cplx* d = dst + c * ds;
    for (std::size_t r = 0; r < rows; ++r) d[r] = src[r * ss + c];
  }
}

}  // namespace detail

/// Out-of-place rectangular transpose of a rows x cols matrix:
/// dst[c*ds + r] = src[r*ss + c] for every r < rows, c < cols. The source
/// row stride ss and the destination row stride ds are in elements; the
/// two ranges must not overlap.
inline void transpose_tiled(const cplx* src, std::size_t ss, cplx* dst,
                            std::size_t ds, std::size_t rows,
                            std::size_t cols) {
  for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
    const std::size_t bc = std::min(kTransposeTile, cols - c0);
    for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
      detail::transpose_tile(src + r0 * ss + c0, ss, dst + c0 * ds + r0, ds,
                             std::min(kTransposeTile, rows - r0), bc);
    }
  }
}

/// transpose_tiled reading the source rows in the order `order`:
/// dst[c*ds + r] = src[order[r]*ss + c]. With order = the bit reversal of
/// the row index, each destination row is a staged sub-FFT input in the
/// order fft::Fft::execute_bit_reversed reads, at the cost of a plain
/// transpose.
inline void transpose_tiled_rows(const cplx* src, std::size_t ss,
                                 const std::uint32_t* order, cplx* dst,
                                 std::size_t ds, std::size_t rows,
                                 std::size_t cols) {
  const cplx* row[kTransposeTile];
  for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
    const std::size_t bc = std::min(kTransposeTile, cols - c0);
    for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
      const std::size_t br = std::min(kTransposeTile, rows - r0);
      for (std::size_t r = 0; r < br; ++r) {
        row[r] = src + order[r0 + r] * ss + c0;
      }
      for (std::size_t c = 0; c < bc; ++c) {
        cplx* d = dst + (c0 + c) * ds + r0;
        for (std::size_t r = 0; r < br; ++r) d[r] = row[r][c];
      }
    }
  }
}

/// In-place transpose of the n x n matrix a[i*lda + j] (lda >= n): swaps
/// a[i*lda + j] with a[j*lda + i] for every i < j < n. Each off-diagonal
/// tile pair swaps through a one-tile buffer, so both writes stay row-wise.
/// Self-inverse.
inline void transpose_square_inplace(cplx* a, std::size_t n,
                                     std::size_t lda) {
  cplx tmp[kTransposeTile * kTransposeTile];
  for (std::size_t i0 = 0; i0 < n; i0 += kTransposeTile) {
    const std::size_t bi = std::min(kTransposeTile, n - i0);
    for (std::size_t i = 0; i < bi; ++i) {
      for (std::size_t j = i + 1; j < bi; ++j) {
        std::swap(a[(i0 + i) * lda + i0 + j], a[(i0 + j) * lda + i0 + i]);
      }
    }
    for (std::size_t j0 = i0 + bi; j0 < n; j0 += kTransposeTile) {
      const std::size_t bj = std::min(kTransposeTile, n - j0);
      cplx* upper = a + i0 * lda + j0;  // bi x bj, rows i
      cplx* lower = a + j0 * lda + i0;  // bj x bi, rows j
      for (std::size_t i = 0; i < bi; ++i) {
        std::copy_n(upper + i * lda, bj, tmp + i * kTransposeTile);
      }
      detail::transpose_tile(lower, lda, upper, lda, bj, bi);
      detail::transpose_tile(tmp, kTransposeTile, lower, lda, bi, bj);
    }
  }
}

}  // namespace ftfft
