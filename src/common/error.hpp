// Error taxonomy for the fault-tolerant FFT library.
//
// Ordinary misuse (bad sizes, null spans) throws std::invalid_argument.
// Fault-tolerance gives up only when the fault model (at most t corrupted
// elements per protected unit) is violated, e.g. a verification keeps
// failing after max_retries; that is an UncorrectableError so callers can
// distinguish "your input is wrong" from "the machine is broken beyond the
// fault model", on the sequential schemes and the distributed six-step path
// alike. The only other library type, CancelledError, marks cancelled work.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace ftfft {

/// Thrown when detection succeeded but correction is impossible within the
/// configured retry budget or the single-fault assumption.
class UncorrectableError : public std::runtime_error {
 public:
  explicit UncorrectableError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Carried by batch-report lanes that were skipped because the submission
/// was cancelled (engine::BatchTicket::cancel) before they started. Not a
/// machine fault and not caller misuse — its own branch of the taxonomy.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}
}  // namespace detail

}  // namespace ftfft
