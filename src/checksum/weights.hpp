// Checksum weight vectors for ABFT FFT (paper sections 2.2 and 4.1).
//
// The computational checksum weights are r_j = omega_3^j with omega_3 a
// primitive cube root of unity (Wang & Jha's encoding). Verifying
//   sum_j r_j X_j  ==  sum_t (rA)_t x_t
// detects any single computational error in X = A x. (rA) is the "input
// checksum vector"; by geometric summation it has the closed form
//   (rA)_t = (1 - omega_3^n) / (1 - omega_3 * omega_n^t),
// valid whenever 3 does not divide n (for 3 | n the weight vector r is
// itself a Fourier mode of the transform and the encoding degenerates, so
// those sizes are rejected — every size FFTW's power-of-two plans produce is
// fine).
//
// Evaluated as written, the denominator cancels near t = n/3 and 2n/3,
// where |(rA)_t| = O(n): the weight's relative error u*|(rA)_t| makes the
// checksum error grow as u*|(rA)_t|^2*|x_t| and trips clean-run checks.
// With q = (n + 3t) mod 3n reduced exactly, in integers, into
// (-3n/2, 3n/2] and h = pi*q/(3n), 1 - omega_3*omega_n^t = 2i sin(h)
// e^(-ih), so (rA)_t = (1 - omega_3^n)/2 * (1 - i cot(h)): one tan per
// entry, within a few ulps. rA is built once per size and cached, so the
// paper's faster section-7.1.1 recurrence would save nothing per transform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/complex.hpp"

namespace ftfft::checksum {

/// r_j = omega_3^j for j in [0, n). Exact constants, no trig.
std::vector<cplx> comp_weights(std::size_t n);

/// The input checksum vector rA for an n-point DFT, 64-byte aligned. Throws
/// std::invalid_argument when 3 divides n (degenerate encoding, see above).
AlignedVector<cplx> input_checksum_vector(std::size_t n);

/// DMR-protected generation (paper Algorithm 2 line 3): the vector is
/// produced twice and compared elementwise; on mismatch a third copy
/// majority-votes. `faulty_copy` lets tests and the fault injector corrupt
/// exactly one of the redundant executions (0 = none).
AlignedVector<cplx> input_checksum_vector_dmr(std::size_t n,
                                              int faulty_copy = 0,
                                              std::size_t corrupt_index = 0);

/// Process-wide cached (rA) vector, LRU-bounded through the shared
/// PlanRegistry. The generation runs under DMR once per cache fill; the
/// returned copy is immutable and shared between every plan and transform
/// of the same n. This is what turns rA generation from O(lanes * n) into
/// O(n) per batch of identical-size lanes.
std::shared_ptr<const AlignedVector<cplx>> shared_input_checksum_vector(
    std::size_t n);

/// Number of raw (rA) generation passes performed process-wide (each DMR
/// generation counts its redundant executions individually). Test and bench
/// hook for verifying that batched lanes amortize generation.
[[nodiscard]] std::uint64_t ra_generations() noexcept;

}  // namespace ftfft::checksum
