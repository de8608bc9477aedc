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
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/complex.hpp"

namespace ftfft::checksum {

/// How to evaluate the closed form for (rA).
enum class RaGenMethod {
  /// One sin/cos pair per element: the obvious implementation, and the
  /// reason the paper's naive offline scheme is slow (Fig. 7 first bar).
  kNaiveTrig,
  /// Incremental recurrence omega_n^(t+1) = omega_n^t * omega_n with
  /// periodic resync against libm, i.e. the paper's "2 complex
  /// multiplications" optimization (section 7.1.1).
  kClosedForm,
};

/// r_j = omega_3^j for j in [0, n). Exact constants, no trig.
std::vector<cplx> comp_weights(std::size_t n);

/// The input checksum vector rA for an n-point DFT. Throws
/// std::invalid_argument when 3 divides n (degenerate encoding, see above).
std::vector<cplx> input_checksum_vector(std::size_t n, RaGenMethod method);

/// DMR-protected generation (paper Algorithm 2 line 3): the vector is
/// produced twice and compared elementwise; on mismatch a third copy
/// majority-votes. `faulty_copy` lets tests and the fault injector corrupt
/// exactly one of the redundant executions (0 = none).
std::vector<cplx> input_checksum_vector_dmr(std::size_t n, RaGenMethod method,
                                            int faulty_copy = 0,
                                            std::size_t corrupt_index = 0);

/// Process-wide cached (rA) vector, LRU-bounded through the shared
/// PlanRegistry. The generation runs under DMR once per cache fill; the
/// returned copy is immutable and shared between every plan and transform
/// of the same (n, method). This is what turns rA generation from
/// O(lanes * n) into O(n) per batch of identical-size lanes.
std::shared_ptr<const std::vector<cplx>> shared_input_checksum_vector(
    std::size_t n, RaGenMethod method);

/// Number of raw (rA) generation passes performed process-wide (each DMR
/// generation counts its redundant executions individually). Test and bench
/// hook for verifying that batched lanes amortize generation.
[[nodiscard]] std::uint64_t ra_generations() noexcept;

}  // namespace ftfft::checksum
