// Cache-blocked (COBRA-style) bit-reversal permutation.
//
// The classic in-place bit-reversal walks a list of swap pairs (i, rev(i)):
// every swap touches two cache lines at effectively random addresses, so at
// n = 2^20 the permutation alone costs as much as several butterfly passes
// (~35% of the AVX2 forward, see ROADMAP/PR 5). Carter & Gatlin's COBRA
// algorithm removes the scatter: split the log2(n) index bits into a leading
// field A, a middle field M and a trailing field T with |A| == |T| == b, so
//
//   i      = (A << (m + b)) | (M << b) | T
//   rev(i) = (rev_b(T) << (m + b)) | (rev_m(M) << b) | rev_b(A)
//
// and the permutation maps the 2^b x 2^b tile of indices {(A, T)} at middle
// M onto the tile at middle rev_m(M). Tiles are moved through a small
// cache-resident buffer: tile rows are read and written as contiguous
// 2^b-element runs, and the only non-sequential accesses happen inside the
// buffer, so every cache line of the array is touched O(1) times.
//
// Because the leading and trailing fields have equal width, middles pair up
// as (M, rev_m(M)) and the permutation is an involution on tile pairs, which
// is what makes the in-place variant possible with one buffered tile pair.
// The middle field absorbs the leftover bits (it has odd width when log2(n)
// is odd and 2b < log2(n) leaves an odd remainder; b itself is clamped to
// log2(n)/2, so "non-square" splits degenerate gracefully — b == 0 recovers
// the plain pair-swap walk).
//
// The write-back runs are contiguous 2^b-element destination rows, which is
// exactly the shape the twiddle-free opener of the in-place FFT schedule
// consumes (adjacent pairs / quadruples): run() can therefore apply that
// first butterfly stage while each row is still in registers, fusing the
// opener into the permutation pass (see InplaceRadix2Plan::forward).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/complex.hpp"
#include "common/seal.hpp"

namespace ftfft::fft {

/// rev of the low `bits` bits of x (x must fit in `bits` bits).
[[nodiscard]] constexpr std::size_t reverse_bits(std::size_t x,
                                                 unsigned bits) noexcept {
  std::size_t rev = 0;
  for (unsigned i = 0; i < bits; ++i) {
    rev = (rev << 1) | (x & 1);
    x >>= 1;
  }
  return rev;
}

/// Immutable tile metadata for one (log2n, tile_bits) pair; shareable across
/// threads (the tile buffer is thread-local inside run()).
class CobraBitReversal {
 public:
  /// Butterfly stage optionally fused into the write-back of run().
  enum class Opener {
    kNone,         ///< pure permutation
    kRadix2Pairs,  ///< twiddle-free radix-2 over adjacent pairs (odd log2n)
    kRadix4First,  ///< first fused radix-4 stage, unit twiddles (even log2n)
  };

  /// tile_bits is clamped to log2n / 2. Openers other than kNone require an
  /// effective tile width >= 2 (runs of >= 4 elements).
  explicit CobraBitReversal(unsigned log2n, unsigned tile_bits);

  /// In-place bit-reversal permutation of data[0..2^log2n).
  void permute(cplx* data) const { run(data, Opener::kNone, false); }

  /// Permutation with the given opener stage applied to every output run
  /// during write-back. Bit-identical to permute() followed by the opener
  /// (runs are aligned 2^b-element blocks, so no butterfly group straddles
  /// a run and per-group arithmetic is unchanged). `inverse` only affects
  /// kRadix4First (the +/-i quarter rotation).
  void run(cplx* data, Opener opener, bool inverse) const;

  /// Out-of-place variant: dst[0..2^log2n) = permuted src (disjoint
  /// buffers), same opener fusion and bit-for-bit the same values as
  /// copying src into dst and calling run(). Out of place the involution
  /// constraint disappears — every tile streams src -> buffer -> dst
  /// independently — so a caller that would otherwise copy and permute
  /// saves one full read+write sweep of the array.
  void run_copy(cplx* dst, const cplx* src, Opener opener,
                bool inverse) const;

  /// Appends the cached permutation tables to `out` (plan-state sealing;
  /// see common/seal.hpp).
  void collect_state(StateSpans& out) const {
    out.add_vec(rev_tile_);
    out.add_vec(mid_pairs_);
  }

  [[nodiscard]] unsigned tile_bits() const noexcept { return b_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return std::size_t{1} << log2n_;
  }

 private:
  unsigned log2n_;
  unsigned b_;    ///< leading == trailing field width; tile is 2^b x 2^b
  unsigned mid_;  ///< middle field width = log2n - 2b
  std::vector<std::uint32_t> rev_tile_;   ///< rev_b(x) for x in [0, 2^b)
  std::vector<std::uint32_t> mid_pairs_;  ///< flattened (m, rev_m(m)), m <= rev
};

}  // namespace ftfft::fft
