#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/error.hpp"
#include "dft/reference_dft.hpp"
#include "inputs.hpp"

namespace perfbench {

double relative_error(const cplx* got, const cplx* want, std::size_t len) {
  const double scale = ftfft::inf_norm(want, len);
  double worst = 0.0;
  for (std::size_t j = 0; j < len; ++j) {
    const double d = ftfft::norm2(got[j] - want[j]);
    // A NaN bin compares false against any bound: make it a failure here.
    if (!std::isfinite(d)) return INFINITY;
    worst = std::max(worst, d);
  }
  return std::sqrt(worst) / (scale > 0.0 ? scale : 1.0);
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kRefused: return "refused";
    case Outcome::kWrong: return "wrong";
    case Outcome::kError: return "error";
  }
  return "?";
}

Outcome judge(const cplx* got, const cplx* want, std::size_t len) {
  return relative_error(got, want, len) <= kOracleTolerance ? Outcome::kOk
                                                            : Outcome::kWrong;
}

Outcome classify(const std::exception_ptr& e, std::string* message) {
  try {
    std::rethrow_exception(e);
  } catch (const ftfft::UncorrectableError& ex) {
    if (message != nullptr) *message = ex.what();
    return Outcome::kRefused;
  } catch (const std::exception& ex) {
    if (message != nullptr) *message = ex.what();
  } catch (...) {
    if (message != nullptr) *message = "non-standard exception";
  }
  return Outcome::kError;
}

void cross_check(const cplx* x, std::size_t n, const cplx* spectrum,
                 std::size_t len, std::size_t bins, std::uint64_t seed) {
  const double scale = ftfft::inf_norm(spectrum, len);
  for (std::size_t b = 0; b < bins; ++b) {
    const std::size_t j = b == 0 ? 0 : mix_seed(seed, b) % len;
    const cplx want = ftfft::dft::reference_dft_element(x, n, j);
    const double err = std::abs(spectrum[j] - want) / (scale > 0 ? scale : 1);
    if (!(err <= kOracleTolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "oracle: unprotected spectrum disagrees with the "
                    "reference DFT at bin %zu of %zu (rel err %.3g)",
                    j, n, err);
      throw std::runtime_error(buf);
    }
  }
}

}  // namespace perfbench
