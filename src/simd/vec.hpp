// Vector abstraction over interleaved complex doubles.
//
// Each backend type packs `width` std::complex<double> values (stored
// re,im,re,im,...) into one register and exposes the small op set the
// kernel templates in kernels_impl.hpp need: loads/stores, add/sub, complex
// multiply, +/-i rotation, elementwise (real) FMA for energy and
// index-weighted sums, and the pointer gather + lane compare of the DMR
// twiddle kernel.
//
// Backends:
//   ScalarVec - width 1, plain std::complex arithmetic. This is the
//               reference: its TU is compiled with -ffp-contract=off so the
//               schoolbook mul/add sequence is exactly what runs.
//   Avx2Vec   - width 2, AVX2 + FMA. Only defined in TUs compiled with
//               -mavx2 -mfma (CMake sets FTFFT_BUILD_AVX2 on that one TU).
//   NeonVec   - width 1, aarch64 NEON with fused multiply-add.
//
// Complex multiply uses FMA where the ISA has it, so backends agree with the
// scalar reference only up to round-off; the checksum thresholds already
// model that (see checksum/dot.hpp).
#pragma once

#include <cstddef>
#include <cstring>

#include "common/complex.hpp"

#if defined(FTFFT_BUILD_AVX2) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define FTFFT_VEC_HAVE_AVX2 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define FTFFT_VEC_HAVE_NEON 1
#endif

namespace ftfft::simd {

// ------------------------------------------------------------------ scalar

struct ScalarVec {
  static constexpr std::size_t width = 1;
  cplx v;

  static ScalarVec load(const cplx* p) noexcept { return {*p}; }
  /// Loads 2*width raw doubles (e.g. the duplicated syndrome node table).
  static ScalarVec load_raw(const double* p) noexcept {
    return {cplx{p[0], p[1]}};
  }
  /// Loads `width` elements p[0], p[stride], ...
  static ScalarVec gather(const cplx* p, std::size_t) noexcept { return {*p}; }
  /// Loads `width` elements *p[0], *p[1], ... from independent addresses
  /// (table lookups whose indices are not an arithmetic stride).
  static ScalarVec gather_ptrs(const cplx* const* p) noexcept {
    return {*p[0]};
  }
  void store(cplx* p) const noexcept { *p = v; }
  /// Dumps the 2*width underlying doubles.
  void store_raw(double* p) const noexcept {
    p[0] = v.real();
    p[1] = v.imag();
  }
  static ScalarVec broadcast(cplx c) noexcept { return {c}; }
  static ScalarVec zero() noexcept { return {cplx{0.0, 0.0}}; }

  ScalarVec operator+(ScalarVec o) const noexcept { return {v + o.v}; }
  ScalarVec operator-(ScalarVec o) const noexcept { return {v - o.v}; }

  /// Complex multiply, schoolbook 4-mul/2-add (matches ftfft::cmul).
  ScalarVec cmul(ScalarVec w) const noexcept { return {ftfft::cmul(v, w.v)}; }
  /// Complex multiply with contraction structurally ruled out: plain
  /// mul/add even on FMA backends, so every backend produces the exact
  /// schoolbook rounding. The real-transform post-pass uses this so its
  /// outputs are bitwise identical across backends (unlike cmul, whose FMA
  /// variants agree with scalar only up to round-off). Here cmul is already
  /// the reference: this TU pins -ffp-contract=off.
  ScalarVec cmul_nofma(ScalarVec w) const noexcept { return cmul(w); }
  ScalarVec conj_() const noexcept { return {std::conj(v)}; }
  ScalarVec mul_i() const noexcept { return {ftfft::mul_i(v)}; }
  ScalarVec mul_neg_i() const noexcept { return {ftfft::mul_neg_i(v)}; }

  /// Elementwise (NOT complex) this*b + acc over the underlying doubles.
  ScalarVec fmadd_elem(ScalarVec b, ScalarVec acc) const noexcept {
    return {cplx{v.real() * b.v.real() + acc.v.real(),
                 v.imag() * b.v.imag() + acc.v.imag()}};
  }

  /// Both slots multiplied by a real scalar (matches cplx::operator*=(double)
  /// rounding; a plain multiply, never contracted into an FMA).
  ScalarVec scale(double s) const noexcept {
    return {cplx{v.real() * s, v.imag() * s}};
  }

  /// Complex lanes in reverse order (width-1: identity). The Hermitian
  /// pair sweep of the real-transform post-pass walks one pointer forward
  /// and its mirror backward with this.
  ScalarVec reversed() const noexcept { return *this; }

  /// Sum of the complex lanes (lane order, deterministic).
  cplx hsum() const noexcept { return v; }
  /// Sum of all 2*width underlying doubles.
  double hsum_slots() const noexcept { return v.real() + v.imag(); }

  /// Real multiplier vectors for the index-weighted sums: lane l carries the
  /// value (base + l) in both its re and im slots.
  static ScalarVec first_index() noexcept { return {cplx{0.0, 0.0}}; }
  static ScalarVec index_step() noexcept { return {cplx{1.0, 1.0}}; }

  /// True iff every slot of a compares equal (IEEE ==) to b's: the DMR
  /// lane compare (NaN never matches, -0.0 matches +0.0, like cplx ==).
  static bool all_eq(ScalarVec a, ScalarVec b) noexcept { return a.v == b.v; }
};

// ------------------------------------------------------------------- AVX2

#if FTFFT_VEC_HAVE_AVX2

struct Avx2Vec {
  static constexpr std::size_t width = 2;
  __m256d v;

  static Avx2Vec load(const cplx* p) noexcept {
    return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  static Avx2Vec load_raw(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  static Avx2Vec gather(const cplx* p, std::size_t stride) noexcept {
    const __m128d lo = _mm_loadu_pd(reinterpret_cast<const double*>(p));
    const __m128d hi =
        _mm_loadu_pd(reinterpret_cast<const double*>(p + stride));
    return {_mm256_set_m128d(hi, lo)};
  }
  static Avx2Vec gather_ptrs(const cplx* const* p) noexcept {
    const __m128d lo = _mm_loadu_pd(reinterpret_cast<const double*>(p[0]));
    const __m128d hi = _mm_loadu_pd(reinterpret_cast<const double*>(p[1]));
    return {_mm256_set_m128d(hi, lo)};
  }
  void store(cplx* p) const noexcept {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  void store_raw(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  static Avx2Vec broadcast(cplx c) noexcept {
    return {_mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag())};
  }
  static Avx2Vec zero() noexcept { return {_mm256_setzero_pd()}; }

  Avx2Vec operator+(Avx2Vec o) const noexcept {
    return {_mm256_add_pd(v, o.v)};
  }
  Avx2Vec operator-(Avx2Vec o) const noexcept {
    return {_mm256_sub_pd(v, o.v)};
  }

  Avx2Vec cmul(Avx2Vec w) const noexcept {
    const __m256d wr = _mm256_movedup_pd(w.v);       // [wr, wr, ...]
    const __m256d wi = _mm256_permute_pd(w.v, 0xF);  // [wi, wi, ...]
    const __m256d xs = _mm256_permute_pd(v, 0x5);    // [xi, xr, ...]
    // even slot: xr*wr - xi*wi, odd slot: xi*wr + xr*wi.
    return {_mm256_fmaddsub_pd(v, wr, _mm256_mul_pd(xs, wi))};
  }
  Avx2Vec cmul_nofma(Avx2Vec w) const noexcept {
    const __m256d wr = _mm256_movedup_pd(w.v);
    const __m256d wi = _mm256_permute_pd(w.v, 0xF);
    const __m256d xs = _mm256_permute_pd(v, 0x5);
    // Same slots as cmul, but addsub of two plain products instead of
    // fmaddsub: exactly the scalar schoolbook rounding, bit-identical to
    // ScalarVec::cmul_nofma.
    return {_mm256_addsub_pd(_mm256_mul_pd(v, wr), _mm256_mul_pd(xs, wi))};
  }
  Avx2Vec conj_() const noexcept {
    return {_mm256_xor_pd(v, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0))};
  }
  Avx2Vec mul_i() const noexcept {
    const __m256d xs = _mm256_permute_pd(v, 0x5);  // [xi, xr, ...]
    return {_mm256_xor_pd(xs, _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0))};
  }
  Avx2Vec mul_neg_i() const noexcept {
    const __m256d xs = _mm256_permute_pd(v, 0x5);
    return {_mm256_xor_pd(xs, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0))};
  }

  Avx2Vec fmadd_elem(Avx2Vec b, Avx2Vec acc) const noexcept {
    return {_mm256_fmadd_pd(v, b.v, acc.v)};
  }

  Avx2Vec scale(double s) const noexcept {
    return {_mm256_mul_pd(v, _mm256_set1_pd(s))};
  }

  Avx2Vec reversed() const noexcept {
    return {_mm256_permute2f128_pd(v, v, 1)};  // swap the two cplx lanes
  }

  cplx hsum() const noexcept {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    alignas(16) double out[2];
    _mm_store_pd(out, s);
    return {out[0], out[1]};
  }
  double hsum_slots() const noexcept {
    const cplx s = hsum();
    return s.real() + s.imag();
  }

  static Avx2Vec first_index() noexcept {
    return {_mm256_setr_pd(0.0, 0.0, 1.0, 1.0)};
  }
  static Avx2Vec index_step() noexcept { return {_mm256_set1_pd(2.0)}; }

  static bool all_eq(Avx2Vec a, Avx2Vec b) noexcept {
    return _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)) == 0xF;
  }
};

#endif  // FTFFT_VEC_HAVE_AVX2

// ------------------------------------------------------------------- NEON

#if FTFFT_VEC_HAVE_NEON

struct NeonVec {
  static constexpr std::size_t width = 1;
  float64x2_t v;  // [re, im]

  static NeonVec load(const cplx* p) noexcept {
    return {vld1q_f64(reinterpret_cast<const double*>(p))};
  }
  static NeonVec load_raw(const double* p) noexcept { return {vld1q_f64(p)}; }
  static NeonVec gather(const cplx* p, std::size_t) noexcept {
    return load(p);
  }
  static NeonVec gather_ptrs(const cplx* const* p) noexcept {
    return load(p[0]);
  }
  void store(cplx* p) const noexcept {
    vst1q_f64(reinterpret_cast<double*>(p), v);
  }
  void store_raw(double* p) const noexcept { vst1q_f64(p, v); }
  static NeonVec broadcast(cplx c) noexcept {
    const double raw[2] = {c.real(), c.imag()};
    return {vld1q_f64(raw)};
  }
  static NeonVec zero() noexcept { return {vdupq_n_f64(0.0)}; }

  NeonVec operator+(NeonVec o) const noexcept { return {vaddq_f64(v, o.v)}; }
  NeonVec operator-(NeonVec o) const noexcept { return {vsubq_f64(v, o.v)}; }

  NeonVec cmul(NeonVec w) const noexcept {
    const float64x2_t wr = vdupq_laneq_f64(w.v, 0);
    const float64x2_t wi = vdupq_laneq_f64(w.v, 1);
    const float64x2_t xs = vextq_f64(v, v, 1);  // [im, re]
    // [-xi*wi, +xr*wi] then fused += [xr*wr, xi*wr].
    const double sgn_raw[2] = {-1.0, 1.0};
    const float64x2_t t = vmulq_f64(vmulq_f64(xs, wi), vld1q_f64(sgn_raw));
    return {vfmaq_f64(t, v, wr)};
  }
  NeonVec cmul_nofma(NeonVec w) const noexcept {
    const float64x2_t wr = vdupq_laneq_f64(w.v, 0);
    const float64x2_t wi = vdupq_laneq_f64(w.v, 1);
    const float64x2_t xs = vextq_f64(v, v, 1);
    // Plain add instead of the fused accumulate of cmul: [-xi*wi + xr*wr,
    // xr*wi + xi*wr], value-identical to the scalar schoolbook sequence
    // (negation is exact and IEEE addition commutes).
    const double sgn_raw[2] = {-1.0, 1.0};
    const float64x2_t t = vmulq_f64(vmulq_f64(xs, wi), vld1q_f64(sgn_raw));
    return {vaddq_f64(t, vmulq_f64(v, wr))};
  }
  NeonVec conj_() const noexcept {
    const double sgn_raw[2] = {1.0, -1.0};
    return {vmulq_f64(v, vld1q_f64(sgn_raw))};
  }
  NeonVec mul_i() const noexcept {
    const float64x2_t xs = vextq_f64(v, v, 1);
    const double sgn_raw[2] = {-1.0, 1.0};
    return {vmulq_f64(xs, vld1q_f64(sgn_raw))};
  }
  NeonVec mul_neg_i() const noexcept {
    const float64x2_t xs = vextq_f64(v, v, 1);
    const double sgn_raw[2] = {1.0, -1.0};
    return {vmulq_f64(xs, vld1q_f64(sgn_raw))};
  }

  NeonVec fmadd_elem(NeonVec b, NeonVec acc) const noexcept {
    return {vfmaq_f64(acc.v, v, b.v)};
  }

  NeonVec scale(double s) const noexcept {
    return {vmulq_n_f64(v, s)};
  }

  NeonVec reversed() const noexcept { return *this; }

  cplx hsum() const noexcept {
    return {vgetq_lane_f64(v, 0), vgetq_lane_f64(v, 1)};
  }
  double hsum_slots() const noexcept { return vaddvq_f64(v); }

  static NeonVec first_index() noexcept { return zero(); }
  static NeonVec index_step() noexcept { return {vdupq_n_f64(1.0)}; }

  static bool all_eq(NeonVec a, NeonVec b) noexcept {
    const uint64x2_t eq = vceqq_f64(a.v, b.v);
    return (vgetq_lane_u64(eq, 0) & vgetq_lane_u64(eq, 1)) == ~0ull;
  }
};

#endif  // FTFFT_VEC_HAVE_NEON

}  // namespace ftfft::simd
