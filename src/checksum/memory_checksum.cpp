#include "checksum/memory_checksum.hpp"

#include <algorithm>

namespace ftfft::checksum {

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
