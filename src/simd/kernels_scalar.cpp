// Scalar backend: the reference implementations every vector backend is
// checked against. This TU is compiled with -ffp-contract=off (see
// CMakeLists.txt) so the schoolbook complex multiply stays a plain
// 4-mul/2-add sequence regardless of compiler contraction defaults — the
// cross-backend comparison tests rely on that baseline being stable.
#include <cassert>
#include <cmath>
#include <numbers>

#include "dft/codelets.hpp"
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"
#include "simd/vec.hpp"

namespace ftfft::simd {

// Shared scalar helpers (also the fallbacks inside the vector backends).

void scalar_combine_columns(cplx* out, std::size_t os, std::size_t m,
                            std::size_t r, const cplx* tw,
                            std::size_t k1_begin, std::size_t k1_end) {
  // Upper bound on the combine radix; kRadixPreference in plan.cpp tops out
  // at 16 and generic codelets at 32, both far below this.
  constexpr std::size_t kMaxRadix = 64;
  assert(r <= kMaxRadix);
  cplx buf[kMaxRadix];
  cplx res[kMaxRadix];
  for (std::size_t k1 = k1_begin; k1 < k1_end; ++k1) {
    buf[0] = out[k1 * os];
    for (std::size_t t1 = 1; t1 < r; ++t1) {
      buf[t1] = cmul(out[(k1 + m * t1) * os], tw[(t1 - 1) * m + k1]);
    }
    dft::codelet_dft(r, buf, 1, res, 1);
    for (std::size_t k2 = 0; k2 < r; ++k2) {
      out[(k1 + m * k2) * os] = res[k2];
    }
  }
}

void scalar_radix2_stage0_range(cplx* data, std::size_t begin,
                                std::size_t end) {
  for (std::size_t base = begin; base + 1 < end; base += 2) {
    const cplx u = data[base];
    const cplx t = data[base + 1];
    data[base] = u + t;
    data[base + 1] = u - t;
  }
}

void scalar_radix4_first_stage_range(cplx* data, std::size_t begin,
                                     std::size_t end, bool inverse) {
  for (std::size_t base = begin; base + 3 < end; base += 4) {
    const cplx a = data[base];
    const cplx b = data[base + 1];
    const cplx c = data[base + 2];
    const cplx d = data[base + 3];
    const cplx a1 = a + b;
    const cplx b1 = a - b;
    const cplx c1 = c + d;
    const cplx d1 = c - d;
    const cplx t3 = inverse ? mul_i(d1) : mul_neg_i(d1);
    data[base] = a1 + c1;
    data[base + 1] = b1 + t3;
    data[base + 2] = a1 - c1;
    data[base + 3] = b1 - t3;
  }
}

void scalar_radix2_stage0_from_range(cplx* dst, const cplx* src,
                                     std::size_t begin, std::size_t end) {
  for (std::size_t base = begin; base + 1 < end; base += 2) {
    const cplx u = src[base];
    const cplx t = src[base + 1];
    dst[base] = u + t;
    dst[base + 1] = u - t;
  }
}

void scalar_radix4_first_stage_from_range(cplx* dst, const cplx* src,
                                          std::size_t begin, std::size_t end,
                                          bool inverse) {
  for (std::size_t base = begin; base + 3 < end; base += 4) {
    const cplx a = src[base];
    const cplx b = src[base + 1];
    const cplx c = src[base + 2];
    const cplx d = src[base + 3];
    const cplx a1 = a + b;
    const cplx b1 = a - b;
    const cplx c1 = c + d;
    const cplx d1 = c - d;
    const cplx t3 = inverse ? mul_i(d1) : mul_neg_i(d1);
    dst[base] = a1 + c1;
    dst[base + 1] = b1 + t3;
    dst[base + 2] = a1 - c1;
    dst[base + 3] = b1 - t3;
  }
}

void scalar_r2c_finalize_range(cplx* dst, const cplx* src, std::size_t nc,
                               const cplx* wq, std::size_t begin,
                               std::size_t end) {
  // One Hermitian pair per k; the op sequence is exactly the width-1 shape
  // of impl::k_r2c_finalize (add, exact *0.5, -i rotation, schoolbook
  // cmul), and this TU pins contraction off, so vector backends calling in
  // for their remainder pairs land on the same bits.
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t j = nc - k;
    const cplx zk = src[k];
    const cplx zjc = std::conj(src[j]);
    const cplx a{(zk.real() + zjc.real()) * 0.5,
                 (zk.imag() + zjc.imag()) * 0.5};
    const cplx b{(zk.real() - zjc.real()) * 0.5,
                 (zk.imag() - zjc.imag()) * 0.5};
    const cplx t = cmul(mul_neg_i(b), wq[k]);
    dst[k] = a + t;
    dst[j] = std::conj(a - t);
  }
}

void scalar_c2r_prepare_range(cplx* dst, const cplx* src, std::size_t nc,
                              const cplx* wq, bool conjugate,
                              std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t j = nc - k;
    const cplx xk = src[k];
    const cplx xjc = std::conj(src[j]);
    const cplx a{(xk.real() + xjc.real()) * 0.5,
                 (xk.imag() + xjc.imag()) * 0.5};
    const cplx b{(xk.real() - xjc.real()) * 0.5,
                 (xk.imag() - xjc.imag()) * 0.5};
    const cplx u = mul_i(cmul(b, std::conj(wq[k])));
    cplx zk = a + u;
    cplx zj = std::conj(a - u);
    if (conjugate) {
      zk = std::conj(zk);
      zj = std::conj(zj);
    }
    dst[k] = zk;
    dst[j] = zj;
  }
}

cplx twiddle_table_entry(std::size_t n, std::uint64_t k) {
  // Extended precision, rounded once per component: the angle's own
  // rounding is what limits a double evaluation (omega() is ~7e-16 off at
  // n = 2^20), and two such entries multiplied would drift past 1e-15.
  const long double ang = -2.0L * std::numbers::pi_v<long double> *
                          static_cast<long double>(k % n) /
                          static_cast<long double>(n);
  return {static_cast<double>(std::cos(ang)),
          static_cast<double>(std::sin(ang))};
}

cplx scalar_table_twiddle(const TwiddleTableView& t, int copy,
                          std::size_t j) {
  const std::size_t mask = (std::size_t{1} << t.shift) - 1;
  return cmul(t.hi[copy][j >> t.shift], t.lo[copy][j & mask]);
}

cplx scalar_exact_twiddle(const TwiddleTableView& t, std::size_t j) {
  // Exactly the entries abft::TwiddleTables stores, recomputed instead of
  // loaded.
  const std::size_t mask = (std::size_t{1} << t.shift) - 1;
  return cmul(twiddle_table_entry(t.n, (j >> t.shift) << t.shift),
              twiddle_table_entry(t.n, j & mask));
}

void scalar_twiddle_write_range(const cplx* src, std::size_t stride,
                                cplx* dst, std::size_t begin, std::size_t end,
                                std::size_t j0, std::size_t step,
                                const TwiddleTableView& t) {
  for (std::size_t i = begin; i < end; ++i) {
    dst[i] = cmul(src[i * stride], scalar_table_twiddle(t, 0, j0 + i * step));
  }
}

std::size_t scalar_twiddle_verify_range(const cplx* src, std::size_t stride,
                                        cplx* dst, std::size_t begin,
                                        std::size_t end, std::size_t j0,
                                        std::size_t step,
                                        const TwiddleTableView& t, bool both) {
  std::size_t mismatches = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t j = j0 + i * step;
    const cplx x = src[i * stride];
    if (both) dst[i] = cmul(x, scalar_table_twiddle(t, 0, j));
    const cplx first = dst[i];
    const cplx second = cmul(x, scalar_table_twiddle(t, 1, j));
    if (first == second) continue;
    const cplx third = cmul(x, scalar_exact_twiddle(t, j));
    dst[i] = (second == third) ? second : (first == third) ? first : third;
    ++mismatches;
  }
  return mismatches;
}

namespace {

using V = ScalarVec;

void s_radix2_stage0(cplx* data, std::size_t n) {
  scalar_radix2_stage0_range(data, 0, n);
}

void s_radix2_stage0_from(cplx* dst, const cplx* src, std::size_t n) {
  scalar_radix2_stage0_from_range(dst, src, 0, n);
}

void s_radix4_first_stage(cplx* data, std::size_t n, bool inverse) {
  scalar_radix4_first_stage_range(data, 0, n, inverse);
}

void s_radix4_first_stage_from(cplx* dst, const cplx* src, std::size_t n,
                               bool inverse) {
  scalar_radix4_first_stage_from_range(dst, src, 0, n, inverse);
}

void s_combine(cplx* out, std::size_t os, std::size_t m, std::size_t r,
               const cplx* tw) {
  scalar_combine_columns(out, os, m, r, tw, 0, m);
}

constexpr FftKernels kScalarFft = {
    s_radix2_stage0,
    s_radix2_stage0_from,
    s_radix4_first_stage,
    s_radix4_first_stage_from,
    impl::k_radix4_stage<V>,
    impl::k_radix16_stage<V>,
    s_combine,
    nullptr,  // dft4: width-1 backend, scalar codelets are already optimal
    nullptr,  // dft8
    nullptr,  // dft16
    impl::k_r2c_finalize<V>,
    impl::k_c2r_prepare<V>,
    impl::k_r2c_last_stage4<V>,
    impl::k_r2c_last_stage16<V>,
    impl::k_dmr_twiddle<V>,
};

constexpr ChecksumKernels kScalarChecksum = {
    impl::k_weighted_sum<V>,
    impl::k_dual_weighted_sum<V>,
    impl::k_energy<V>,
    impl::k_weighted_sum_energy<V>,
    impl::k_weighted_sum_energy_at<V>,
    impl::k_dual_weighted_sum_energy<V>,
    impl::k_omega3_weighted_sum<V>,
    impl::k_copy_dual_sum<V>,
    impl::k_syndrome_dot<V>,
};

}  // namespace

const ChecksumKernels* scalar_checksum_kernels() { return &kScalarChecksum; }
const FftKernels* scalar_fft_kernels() { return &kScalarFft; }

}  // namespace ftfft::simd
