// Output oracle: every op's spectrum is compared with the unprotected
// transform of the same input, which is itself cross-checked once against
// the O(n) reference DFT row at a few seeded bins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

#include "common/complex.hpp"

namespace perfbench {

using ftfft::cplx;

/// Largest max-norm deviation, relative to the reference spectrum's max
/// norm, that a correct spectrum may show. Round-off between two correct
/// transform algorithms is ~1e-15 relative at these sizes; any fault the
/// protection failed to remove is >= 1e-3.
inline constexpr double kOracleTolerance = 1e-9;

/// max_j |got_j - want_j| / ||want||_inf (denominator 1 for a zero want).
[[nodiscard]] double relative_error(const cplx* got, const cplx* want,
                                    std::size_t len);

/// How one op ended.
enum class Outcome {
  kOk,       ///< returned a spectrum within kOracleTolerance
  kRefused,  ///< threw ftfft::UncorrectableError (the library said so)
  kWrong,    ///< returned a spectrum outside the bound: silent corruption
  kError,    ///< threw anything else: not part of the error taxonomy here
};
[[nodiscard]] const char* outcome_name(Outcome o);

/// kOk or kWrong for a returned spectrum.
[[nodiscard]] Outcome judge(const cplx* got, const cplx* want, std::size_t len);

/// kRefused or kError for a thrown exception; stores its message.
[[nodiscard]] Outcome classify(const std::exception_ptr& e,
                               std::string* message);

/// Checks spectrum[0..len) (the unprotected transform of x[0..n)) against
/// dft::reference_dft_element at `bins` seeded bins; throws
/// std::runtime_error on a mismatch, which is a harness error.
void cross_check(const cplx* x, std::size_t n, const cplx* spectrum,
                 std::size_t len, std::size_t bins, std::uint64_t seed);

}  // namespace perfbench
