// Input memory checksums (CMCG, paper section 3.2): the per-slot dual sums
// taken over a row-major block before it sits in memory. A slot's dual pair
// is its t = 1 moment set (checksum::dual_moments); a mismatch is decoded
// by checksum::repair_errors (multi_error.hpp).
#pragma once

#include <cstddef>

#include "checksum/multi_error.hpp"
#include "common/complex.hpp"

namespace ftfft::checksum {

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
