// AVX2 + FMA backend: 2 interleaved complex doubles per __m256d.
//
// This TU is the only one compiled with -mavx2 -mfma (CMake sets
// FTFFT_BUILD_AVX2 on it when the target arch is x86 and the backend is not
// disabled); everywhere else in the library stays at the baseline ISA so the
// binary still runs on machines without AVX2 — the dispatcher simply never
// hands out this table there.
#include "simd/kernels.hpp"

#if defined(FTFFT_BUILD_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "dft/codelet_constants.hpp"
#include "simd/kernels_impl.hpp"
#include "simd/vec.hpp"

namespace ftfft::simd {
namespace {

using V = Avx2Vec;

// --------------------------------------------------- shuffle-based stages

// Twiddle-free radix-2 pass: two pairs (4 cplx) per iteration. permute2f128
// regroups [u0,t0],[u1,t1] into [u0,u1],[t0,t1] so the butterfly is a plain
// vertical add/sub.
void a_radix2_stage0(cplx* data, std::size_t n) {
  std::size_t base = 0;
  for (; base + 4 <= n; base += 4) {
    double* p = reinterpret_cast<double*>(data + base);
    const __m256d v01 = _mm256_loadu_pd(p);
    const __m256d v23 = _mm256_loadu_pd(p + 4);
    const __m256d u = _mm256_permute2f128_pd(v01, v23, 0x20);  // [u0, u1]
    const __m256d t = _mm256_permute2f128_pd(v01, v23, 0x31);  // [t0, t1]
    const __m256d s = _mm256_add_pd(u, t);
    const __m256d d = _mm256_sub_pd(u, t);
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(s, d, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(s, d, 0x31));
  }
  scalar_radix2_stage0_range(data, base, n);
}

// Out-of-place variant of the radix-2 opener: reads src, writes dst (the
// COBRA tile write-back rows are disjoint from the tile buffer).
void a_radix2_stage0_from(cplx* dst, const cplx* src, std::size_t n) {
  std::size_t base = 0;
  for (; base + 4 <= n; base += 4) {
    const double* ps = reinterpret_cast<const double*>(src + base);
    double* pd = reinterpret_cast<double*>(dst + base);
    const __m256d v01 = _mm256_loadu_pd(ps);
    const __m256d v23 = _mm256_loadu_pd(ps + 4);
    const __m256d u = _mm256_permute2f128_pd(v01, v23, 0x20);  // [u0, u1]
    const __m256d t = _mm256_permute2f128_pd(v01, v23, 0x31);  // [t0, t1]
    const __m256d s = _mm256_add_pd(u, t);
    const __m256d d = _mm256_sub_pd(u, t);
    _mm256_storeu_pd(pd, _mm256_permute2f128_pd(s, d, 0x20));
    _mm256_storeu_pd(pd + 4, _mm256_permute2f128_pd(s, d, 0x31));
  }
  scalar_radix2_stage0_from_range(dst, src, base, n);
}

// First fused radix-4 stage (unit twiddles): two 4-element blocks (8 cplx)
// per iteration, transposed in and out with permute2f128.
void a_radix4_first_stage(cplx* data, std::size_t n, bool inverse) {
  std::size_t base = 0;
  for (; base + 8 <= n; base += 8) {
    double* p = reinterpret_cast<double*>(data + base);
    const __m256d v0 = _mm256_loadu_pd(p);       // [a0, b0]
    const __m256d v1 = _mm256_loadu_pd(p + 4);   // [c0, d0]
    const __m256d v2 = _mm256_loadu_pd(p + 8);   // [a1, b1]
    const __m256d v3 = _mm256_loadu_pd(p + 12);  // [c1, d1]
    const V a{_mm256_permute2f128_pd(v0, v2, 0x20)};  // [a0, a1]
    const V b{_mm256_permute2f128_pd(v0, v2, 0x31)};  // [b0, b1]
    const V c{_mm256_permute2f128_pd(v1, v3, 0x20)};  // [c0, c1]
    const V d{_mm256_permute2f128_pd(v1, v3, 0x31)};  // [d0, d1]
    const V a1 = a + b;
    const V b1 = a - b;
    const V c1 = c + d;
    const V d1 = c - d;
    const V t3 = inverse ? d1.mul_i() : d1.mul_neg_i();
    const V o0 = a1 + c1;
    const V o1 = b1 + t3;
    const V o2 = a1 - c1;
    const V o3 = b1 - t3;
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(o0.v, o1.v, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(o2.v, o3.v, 0x20));
    _mm256_storeu_pd(p + 8, _mm256_permute2f128_pd(o0.v, o1.v, 0x31));
    _mm256_storeu_pd(p + 12, _mm256_permute2f128_pd(o2.v, o3.v, 0x31));
  }
  scalar_radix4_first_stage_range(data, base, n, inverse);
}

// Out-of-place variant of the first fused radix-4 stage.
void a_radix4_first_stage_from(cplx* dst, const cplx* src, std::size_t n,
                               bool inverse) {
  std::size_t base = 0;
  for (; base + 8 <= n; base += 8) {
    const double* ps = reinterpret_cast<const double*>(src + base);
    double* pd = reinterpret_cast<double*>(dst + base);
    const __m256d v0 = _mm256_loadu_pd(ps);       // [a0, b0]
    const __m256d v1 = _mm256_loadu_pd(ps + 4);   // [c0, d0]
    const __m256d v2 = _mm256_loadu_pd(ps + 8);   // [a1, b1]
    const __m256d v3 = _mm256_loadu_pd(ps + 12);  // [c1, d1]
    const V a{_mm256_permute2f128_pd(v0, v2, 0x20)};  // [a0, a1]
    const V b{_mm256_permute2f128_pd(v0, v2, 0x31)};  // [b0, b1]
    const V c{_mm256_permute2f128_pd(v1, v3, 0x20)};  // [c0, c1]
    const V d{_mm256_permute2f128_pd(v1, v3, 0x31)};  // [d0, d1]
    const V a1 = a + b;
    const V b1 = a - b;
    const V c1 = c + d;
    const V d1 = c - d;
    const V t3 = inverse ? d1.mul_i() : d1.mul_neg_i();
    const V o0 = a1 + c1;
    const V o1 = b1 + t3;
    const V o2 = a1 - c1;
    const V o3 = b1 - t3;
    _mm256_storeu_pd(pd, _mm256_permute2f128_pd(o0.v, o1.v, 0x20));
    _mm256_storeu_pd(pd + 4, _mm256_permute2f128_pd(o2.v, o3.v, 0x20));
    _mm256_storeu_pd(pd + 8, _mm256_permute2f128_pd(o0.v, o1.v, 0x31));
    _mm256_storeu_pd(pd + 12, _mm256_permute2f128_pd(o2.v, o3.v, 0x31));
  }
  scalar_radix4_first_stage_from_range(dst, src, base, n, inverse);
}

// ------------------------------------------------------- leaf codelets

// Strided-input, contiguous-output DFT-N: lane 0 carries the even-indexed
// subsequence, lane 1 the odd one; a single vertical DFT of size N/2 then
// computes both sub-transforms at once, and the final radix-2 combine
// multiplies lane 1 by omega_N^k ([1, w] vectors) before splitting lanes.
template <std::size_t Half>
inline void leaf_dft(const cplx* in, std::size_t is, cplx* out,
                     const cplx* half_tw) {
  V v[Half];
  for (std::size_t t = 0; t < Half; ++t) {
    v[t] = V::gather(in + 2 * t * is, is);  // [even[t], odd[t]]
  }
  if constexpr (Half == 2) {
    impl::vdft2(v);
  } else if constexpr (Half == 4) {
    impl::vdft4(v);
  } else {
    static_assert(Half == 8);
    impl::vdft8(v);
  }
  for (std::size_t k = 0; k < Half; ++k) {
    const V wv{_mm256_setr_pd(1.0, 0.0, half_tw[k].real(),
                              half_tw[k].imag())};
    const V u = v[k].cmul(wv);  // [e_k, w*o_k]; lane 0 is exact (w == 1)
    const __m128d e = _mm256_castpd256_pd128(u.v);
    const __m128d t = _mm256_extractf128_pd(u.v, 1);
    _mm_storeu_pd(reinterpret_cast<double*>(out + k), _mm_add_pd(e, t));
    _mm_storeu_pd(reinterpret_cast<double*>(out + k + Half),
                  _mm_sub_pd(e, t));
  }
}

void a_dft4(const cplx* in, std::size_t is, cplx* out) {
  static const cplx w4[2] = {{1.0, 0.0}, {0.0, -1.0}};
  leaf_dft<2>(in, is, out, w4);
}

void a_dft8(const cplx* in, std::size_t is, cplx* out) {
  using dft::kHalfSqrt2;
  static const cplx w8[4] = {{1.0, 0.0},
                             {kHalfSqrt2, -kHalfSqrt2},
                             {0.0, -1.0},
                             {-kHalfSqrt2, -kHalfSqrt2}};
  leaf_dft<4>(in, is, out, w8);
}

void a_dft16(const cplx* in, std::size_t is, cplx* out) {
  using dft::kCosPi8;
  using dft::kHalfSqrt2;
  using dft::kSinPi8;
  static const cplx w16[8] = {{1.0, 0.0},
                              {kCosPi8, -kSinPi8},
                              {kHalfSqrt2, -kHalfSqrt2},
                              {kSinPi8, -kCosPi8},
                              {0.0, -1.0},
                              {-kSinPi8, -kCosPi8},
                              {-kHalfSqrt2, -kHalfSqrt2},
                              {-kCosPi8, -kSinPi8}};
  leaf_dft<8>(in, is, out, w16);
}

// -------------------------------------------------------------- tables

void a_radix4_stage(cplx* data, std::size_t n, std::size_t len,
                    const cplx* w1, const cplx* w2, bool inverse,
                    double scale) {
  impl::k_radix4_stage<V>(data, n, len, w1, w2, inverse, scale);
}

constexpr FftKernels kAvx2Fft = {
    a_radix2_stage0,
    a_radix2_stage0_from,
    a_radix4_first_stage,
    a_radix4_first_stage_from,
    a_radix4_stage,
    impl::k_radix16_stage<V>,
    impl::k_combine<V>,
    a_dft4,
    a_dft8,
    a_dft16,
    impl::k_r2c_finalize<V>,
    impl::k_c2r_prepare<V>,
    impl::k_r2c_last_stage4<V>,
    impl::k_r2c_last_stage16<V>,
    impl::k_dmr_twiddle<V>,
};

constexpr ChecksumKernels kAvx2Checksum = {
    impl::k_weighted_sum<V>,
    impl::k_dual_weighted_sum<V>,
    impl::k_energy<V>,
    impl::k_weighted_sum_energy<V>,
    impl::k_weighted_sum_energy_at<V>,
    impl::k_dual_weighted_sum_energy<V>,
    impl::k_omega3_weighted_sum<V>,
    impl::k_copy_dual_sum<V>,
    impl::k_syndrome_dot<V>,
    impl::k_fold_row<V>,
    impl::k_plain_sum<V>,
};

}  // namespace

const ChecksumKernels* avx2_checksum_kernels() { return &kAvx2Checksum; }
const FftKernels* avx2_fft_kernels() { return &kAvx2Fft; }

}  // namespace ftfft::simd

#else  // backend not compiled in

namespace ftfft::simd {

const ChecksumKernels* avx2_checksum_kernels() { return nullptr; }
const FftKernels* avx2_fft_kernels() { return nullptr; }

}  // namespace ftfft::simd

#endif
