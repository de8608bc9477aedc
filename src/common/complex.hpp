// Complex scalar type and small arithmetic kernels shared by every module.
//
// The whole library computes in double-precision IEEE-754 complex arithmetic;
// std::complex<double> is the canonical scalar. Helper kernels below exist so
// hot loops can avoid the (historically) conservative codegen of operator*
// for std::complex without giving up strict IEEE semantics.
#pragma once

#include <complex>
#include <cstddef>

namespace ftfft {

/// Canonical complex scalar used across the library.
using cplx = std::complex<double>;

/// Multiply two complex numbers with the plain 4-mul/2-add schoolbook
/// formula. Equivalent to operator* under -fno-fast-math but easier for the
/// optimizer to keep in registers inside manually unrolled codelets.
[[nodiscard]] inline cplx cmul(cplx a, cplx b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Multiply by the imaginary unit: i*a.
[[nodiscard]] inline cplx mul_i(cplx a) noexcept {
  return {-a.imag(), a.real()};
}

/// Multiply by -i.
[[nodiscard]] inline cplx mul_neg_i(cplx a) noexcept {
  return {a.imag(), -a.real()};
}

/// Squared magnitude |a|^2 without the sqrt of std::abs.
[[nodiscard]] inline double norm2(cplx a) noexcept {
  return a.real() * a.real() + a.imag() * a.imag();
}

/// Chebyshev-style max norm of the componentwise difference; used by tests
/// and by the fault-coverage experiments (paper Table 6 uses ||.||_inf).
[[nodiscard]] inline double inf_diff(const cplx* a, const cplx* b,
                                     std::size_t n) noexcept {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dr = a[i].real() - b[i].real();
    const double di = a[i].imag() - b[i].imag();
    const double m = dr * dr + di * di;
    if (m > worst) worst = m;
  }
  return worst == 0.0 ? 0.0 : std::sqrt(worst);
}

/// ||a||_inf over a complex vector.
[[nodiscard]] inline double inf_norm(const cplx* a, std::size_t n) noexcept {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double m = norm2(a[i]);
    if (m > worst) worst = m;
  }
  return worst == 0.0 ? 0.0 : std::sqrt(worst);
}

}  // namespace ftfft
