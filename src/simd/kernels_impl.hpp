// Generic kernel bodies, parameterized on a vector type from vec.hpp.
//
// Each backend TU instantiates these with its vector type, so the math is
// written once and every backend performs the same operation *sequence*; only
// lane width and FMA contraction differ. Reductions use at least two
// independent accumulator registers (four scalar chains at width 1, eight at
// width 2) so the loop is not serialized on one floating-point add chain —
// this also changes summation order vs a naive single chain, which the
// detection thresholds absorb (see checksum/dot.hpp).
//
// Included only by the kernels_*.cpp backend TUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "checksum/dot.hpp"
#include "common/complex.hpp"
#include "common/math_util.hpp"
#include "dft/codelet_constants.hpp"
#include "simd/kernels.hpp"

namespace ftfft::simd::impl {

// ============================================================== checksums

template <class V>
cplx k_weighted_sum(const cplx* w, const cplx* x, std::size_t n) {
  constexpr std::size_t W = V::width;
  V a0 = V::zero();
  V a1 = V::zero();
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    a0 = a0 + V::load(w + j).cmul(V::load(x + j));
    a1 = a1 + V::load(w + j + W).cmul(V::load(x + j + W));
  }
  for (; j + W <= n; j += W) {
    a0 = a0 + V::load(w + j).cmul(V::load(x + j));
  }
  cplx acc = (a0 + a1).hsum();
  for (; j < n; ++j) acc += cmul(w[j], x[j]);
  return acc;
}

/// Scalar tail step of every dual-sum kernel: adds term p of index j.
/// Kept out of line so all callers of one backend share a single body — a
/// backend TU compiled with FMA contraction could otherwise contract the
/// inlined copies differently, and copy_dual_sum's sums must stay
/// bit-identical to dual_weighted_sum's.
template <class V>
[[gnu::noinline]] void k_dual_tail(checksum::DualSum& out, cplx p,
                                   std::size_t j) {
  out.plain += p;
  out.indexed += static_cast<double>(j) * p;
}

template <class V>
checksum::DualSum k_dual_weighted_sum(const cplx* w, const cplx* x,
                                      std::size_t n) {
  constexpr std::size_t W = V::width;
  V p0 = V::zero(), p1 = V::zero();
  V i0 = V::zero(), i1 = V::zero();
  V j0 = V::first_index();
  V j1 = j0 + V::index_step();
  const V step2 = V::index_step() + V::index_step();
  std::size_t j = 0;
  if (w == nullptr) {
    for (; j + 2 * W <= n; j += 2 * W) {
      const V v0 = V::load(x + j);
      const V v1 = V::load(x + j + W);
      p0 = p0 + v0;
      p1 = p1 + v1;
      i0 = v0.fmadd_elem(j0, i0);
      i1 = v1.fmadd_elem(j1, i1);
      j0 = j0 + step2;
      j1 = j1 + step2;
    }
    for (; j + W <= n; j += W) {
      const V v0 = V::load(x + j);
      p0 = p0 + v0;
      i0 = v0.fmadd_elem(j0, i0);
      j0 = j0 + V::index_step();
    }
  } else {
    for (; j + 2 * W <= n; j += 2 * W) {
      const V q0 = V::load(w + j).cmul(V::load(x + j));
      const V q1 = V::load(w + j + W).cmul(V::load(x + j + W));
      p0 = p0 + q0;
      p1 = p1 + q1;
      i0 = q0.fmadd_elem(j0, i0);
      i1 = q1.fmadd_elem(j1, i1);
      j0 = j0 + step2;
      j1 = j1 + step2;
    }
    for (; j + W <= n; j += W) {
      const V q0 = V::load(w + j).cmul(V::load(x + j));
      p0 = p0 + q0;
      i0 = q0.fmadd_elem(j0, i0);
      j0 = j0 + V::index_step();
    }
  }
  checksum::DualSum out;
  out.plain = (p0 + p1).hsum();
  out.indexed = (i0 + i1).hsum();
  for (; j < n; ++j) {
    k_dual_tail<V>(out, w == nullptr ? x[j] : cmul(w[j], x[j]), j);
  }
  return out;
}

/// Moment-sum reduction for the multi-error syndromes (see checksum/
/// multi_error.hpp): out[m] = sum_j u_j^m * w_j * x_j for m in [0, moments),
/// u_j read from the duplicated node table nodes2 (slots 2j and 2j+1 both
/// hold u_j, so one raw vector load scales the re/im slots of element j
/// elementwise). w == nullptr means all-ones weights. moments <= 8; one
/// accumulator per moment — the moment loop itself provides the
/// instruction-level parallelism a single reduction chain would lack.
template <class V>
void k_syndrome_dot(const cplx* w, const cplx* x, const double* nodes2,
                    std::size_t n, int moments, cplx* out) {
  constexpr std::size_t W = V::width;
  V acc[8];
  for (int m = 0; m < moments; ++m) acc[m] = V::zero();
  std::size_t j = 0;
  for (; j + W <= n; j += W) {
    V q =
        (w == nullptr) ? V::load(x + j) : V::load(w + j).cmul(V::load(x + j));
    acc[0] = acc[0] + q;
    const V u = V::load_raw(nodes2 + 2 * j);
    for (int m = 1; m < moments; ++m) {
      q = q.fmadd_elem(u, V::zero());
      acc[m] = acc[m] + q;
    }
  }
  cplx sums[8];
  for (int m = 0; m < moments; ++m) sums[m] = acc[m].hsum();
  for (; j < n; ++j) {
    cplx q = (w == nullptr) ? x[j] : ftfft::cmul(w[j], x[j]);
    const double u = nodes2[2 * j];
    sums[0] += q;
    for (int m = 1; m < moments; ++m) {
      q *= u;
      sums[m] += q;
    }
  }
  for (int m = 0; m < moments; ++m) out[m] = sums[m];
}

/// dst = src with the all-ones dual checksum and the energy of the stream
/// accumulated on the same pass. The sums mirror k_dual_weighted_sum's
/// w == nullptr branch exactly and the energy mirrors k_energy (same
/// accumulator registers, same lane order), with a store added per load, so
/// both are bit-identical to the separate sweeps on the same backend. The
/// energy is written to *energy unless energy is null. dst and src must not
/// overlap.
template <class V>
checksum::DualSum k_copy_dual_sum(cplx* dst, const cplx* src, std::size_t n,
                                  double* energy) {
  constexpr std::size_t W = V::width;
  V p0 = V::zero(), p1 = V::zero();
  V i0 = V::zero(), i1 = V::zero();
  V e0 = V::zero(), e1 = V::zero();
  V j0 = V::first_index();
  V j1 = j0 + V::index_step();
  const V step2 = V::index_step() + V::index_step();
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    const V v0 = V::load(src + j);
    const V v1 = V::load(src + j + W);
    v0.store(dst + j);
    v1.store(dst + j + W);
    p0 = p0 + v0;
    p1 = p1 + v1;
    i0 = v0.fmadd_elem(j0, i0);
    i1 = v1.fmadd_elem(j1, i1);
    e0 = v0.fmadd_elem(v0, e0);
    e1 = v1.fmadd_elem(v1, e1);
    j0 = j0 + step2;
    j1 = j1 + step2;
  }
  for (; j + W <= n; j += W) {
    const V v0 = V::load(src + j);
    v0.store(dst + j);
    p0 = p0 + v0;
    i0 = v0.fmadd_elem(j0, i0);
    e0 = v0.fmadd_elem(v0, e0);
    j0 = j0 + V::index_step();
  }
  checksum::DualSum out;
  out.plain = (p0 + p1).hsum();
  out.indexed = (i0 + i1).hsum();
  double e = (e0 + e1).hsum_slots();
  for (; j < n; ++j) {
    const cplx v = src[j];
    dst[j] = v;
    k_dual_tail<V>(out, v, j);
    e += norm2(v);
  }
  if (energy != nullptr) *energy = e;
  return out;
}

template <class V>
double k_energy(const cplx* x, std::size_t n) {
  constexpr std::size_t W = V::width;
  V a0 = V::zero();
  V a1 = V::zero();
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    const V v0 = V::load(x + j);
    const V v1 = V::load(x + j + W);
    a0 = v0.fmadd_elem(v0, a0);
    a1 = v1.fmadd_elem(v1, a1);
  }
  for (; j + W <= n; j += W) {
    const V v0 = V::load(x + j);
    a0 = v0.fmadd_elem(v0, a0);
  }
  double acc = (a0 + a1).hsum_slots();
  for (; j < n; ++j) acc += norm2(x[j]);
  return acc;
}

/// Reads element j of a natural-order stream: straight from x, or
/// (Indexed) from x[idx[j]], so a permuted buffer is summed in natural order.
template <class V, bool Indexed>
struct StreamLoad {
  const cplx* x;
  const std::uint32_t* idx;
  V operator()(std::size_t j) const {
    if constexpr (!Indexed) {
      return V::load(x + j);
    } else {
      const cplx* p[V::width];
      for (std::size_t l = 0; l < V::width; ++l) p[l] = x + idx[j + l];
      return V::gather_ptrs(p);
    }
  }
  cplx at(std::size_t j) const { return Indexed ? x[idx[j]] : x[j]; }
};

template <class V, bool Indexed>
checksum::SumEnergy weighted_sum_energy_of(const cplx* w,
                                           StreamLoad<V, Indexed> x,
                                           std::size_t n) {
  constexpr std::size_t W = V::width;
  V s0 = V::zero(), s1 = V::zero();
  V e0 = V::zero(), e1 = V::zero();
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    const V v0 = x(j);
    const V v1 = x(j + W);
    s0 = s0 + V::load(w + j).cmul(v0);
    s1 = s1 + V::load(w + j + W).cmul(v1);
    e0 = v0.fmadd_elem(v0, e0);
    e1 = v1.fmadd_elem(v1, e1);
  }
  for (; j + W <= n; j += W) {
    const V v0 = x(j);
    s0 = s0 + V::load(w + j).cmul(v0);
    e0 = v0.fmadd_elem(v0, e0);
  }
  checksum::SumEnergy out;
  out.sum = (s0 + s1).hsum();
  out.energy = (e0 + e1).hsum_slots();
  for (; j < n; ++j) {
    out.sum += cmul(w[j], x.at(j));
    out.energy += norm2(x.at(j));
  }
  return out;
}

template <class V>
checksum::SumEnergy k_weighted_sum_energy(const cplx* w, const cplx* x,
                                          std::size_t n) {
  return weighted_sum_energy_of<V, false>(w, {x, nullptr}, n);
}

template <class V>
checksum::SumEnergy k_weighted_sum_energy_at(const cplx* w, const cplx* x,
                                             const std::uint32_t* idx,
                                             std::size_t n) {
  return weighted_sum_energy_of<V, true>(w, {x, idx}, n);
}

template <class V>
checksum::DualSumEnergy k_dual_weighted_sum_energy(const cplx* w,
                                                   const cplx* x,
                                                   std::size_t n) {
  constexpr std::size_t W = V::width;
  V p0 = V::zero(), p1 = V::zero();
  V i0 = V::zero(), i1 = V::zero();
  V e0 = V::zero(), e1 = V::zero();
  V j0 = V::first_index();
  V j1 = j0 + V::index_step();
  const V step2 = V::index_step() + V::index_step();
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    const V v0 = V::load(x + j);
    const V v1 = V::load(x + j + W);
    const V q0 = w == nullptr ? v0 : V::load(w + j).cmul(v0);
    const V q1 = w == nullptr ? v1 : V::load(w + j + W).cmul(v1);
    p0 = p0 + q0;
    p1 = p1 + q1;
    i0 = q0.fmadd_elem(j0, i0);
    i1 = q1.fmadd_elem(j1, i1);
    e0 = v0.fmadd_elem(v0, e0);
    e1 = v1.fmadd_elem(v1, e1);
    j0 = j0 + step2;
    j1 = j1 + step2;
  }
  for (; j + W <= n; j += W) {
    const V v0 = V::load(x + j);
    const V q0 = w == nullptr ? v0 : V::load(w + j).cmul(v0);
    p0 = p0 + q0;
    i0 = q0.fmadd_elem(j0, i0);
    e0 = v0.fmadd_elem(v0, e0);
    j0 = j0 + V::index_step();
  }
  checksum::DualSumEnergy out;
  out.sums.plain = (p0 + p1).hsum();
  out.sums.indexed = (i0 + i1).hsum();
  out.energy = (e0 + e1).hsum_slots();
  for (; j < n; ++j) {
    k_dual_tail<V>(out.sums, w == nullptr ? x[j] : cmul(w[j], x[j]), j);
    out.energy += norm2(x[j]);
  }
  return out;
}

template <class V>
cplx k_omega3_weighted_sum(const cplx* x, std::size_t n) {
  constexpr std::size_t W = V::width;
  // Three accumulator vectors per 3W-element chunk; because chunk bases are
  // multiples of 3W, the lane -> (j mod 3) bucket pattern is the same in
  // every chunk and is unwound once at the end.
  V a0 = V::zero(), a1 = V::zero(), a2 = V::zero();
  std::size_t j = 0;
  for (; j + 3 * W <= n; j += 3 * W) {
    a0 = a0 + V::load(x + j);
    a1 = a1 + V::load(x + j + W);
    a2 = a2 + V::load(x + j + 2 * W);
  }
  cplx b[3] = {cplx{0.0, 0.0}, cplx{0.0, 0.0}, cplx{0.0, 0.0}};
  double raw[3][2 * W];
  a0.store_raw(raw[0]);
  a1.store_raw(raw[1]);
  a2.store_raw(raw[2]);
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t s = 0; s < W; ++s) {
      b[(t * W + s) % 3] += cplx{raw[t][2 * s], raw[t][2 * s + 1]};
    }
  }
  for (; j < n; ++j) b[j % 3] += x[j];
  return b[0] + cmul(omega3_pow(1), b[1]) + cmul(omega3_pow(2), b[2]);
}

// ============================================================ FFT stages

/// Width-1 shaped twiddle-free radix-2 pass; backends with wider registers
/// provide a shuffle-based version instead.
template <class V>
void k_radix2_stage0_w1(cplx* data, std::size_t n) {
  static_assert(V::width == 1);
  for (std::size_t base = 0; base + 1 < n; base += 2) {
    const V u = V::load(data + base);
    const V t = V::load(data + base + 1);
    (u + t).store(data + base);
    (u - t).store(data + base + 1);
  }
}

/// Width-1 shaped out-of-place opener (COBRA fused write-back).
template <class V>
void k_radix2_stage0_from_w1(cplx* dst, const cplx* src, std::size_t n) {
  static_assert(V::width == 1);
  for (std::size_t base = 0; base + 1 < n; base += 2) {
    const V u = V::load(src + base);
    const V t = V::load(src + base + 1);
    (u + t).store(dst + base);
    (u - t).store(dst + base + 1);
  }
}

/// Width-1 shaped first fused radix-4 stage (len == 4, unit twiddles).
template <class V>
void k_radix4_first_stage_w1(cplx* data, std::size_t n, bool inverse) {
  static_assert(V::width == 1);
  for (std::size_t base = 0; base + 3 < n; base += 4) {
    const V a = V::load(data + base);
    const V b = V::load(data + base + 1);
    const V c = V::load(data + base + 2);
    const V d = V::load(data + base + 3);
    const V a1 = a + b;
    const V b1 = a - b;
    const V c1 = c + d;
    const V d1 = c - d;
    const V t3 = inverse ? d1.mul_i() : d1.mul_neg_i();
    (a1 + c1).store(data + base);
    (b1 + t3).store(data + base + 1);
    (a1 - c1).store(data + base + 2);
    (b1 - t3).store(data + base + 3);
  }
}

/// Width-1 shaped out-of-place first fused radix-4 stage.
template <class V>
void k_radix4_first_stage_from_w1(cplx* dst, const cplx* src, std::size_t n,
                                  bool inverse) {
  static_assert(V::width == 1);
  for (std::size_t base = 0; base + 3 < n; base += 4) {
    const V a = V::load(src + base);
    const V b = V::load(src + base + 1);
    const V c = V::load(src + base + 2);
    const V d = V::load(src + base + 3);
    const V a1 = a + b;
    const V b1 = a - b;
    const V c1 = c + d;
    const V d1 = c - d;
    const V t3 = inverse ? d1.mul_i() : d1.mul_neg_i();
    (a1 + c1).store(dst + base);
    (b1 + t3).store(dst + base + 1);
    (a1 - c1).store(dst + base + 2);
    (b1 - t3).store(dst + base + 3);
  }
}

/// One fused radix-4 stage; quarter = len/4 must be a multiple of V::width
/// (true for len >= 8 whenever width <= 2: quarter is a power of two >= 2).
/// When Scaled, every output picks up the real factor `scale` — applied to
/// the already-rounded butterfly result, so it matches a separate
/// data[i] *= scale sweep bit-for-bit.
template <class V, bool Inverse, bool Scaled>
void k_radix4_stage_t(cplx* data, std::size_t n, std::size_t len,
                      const cplx* w1, const cplx* w2, double scale) {
  const std::size_t quarter = len >> 2;
  for (std::size_t base = 0; base < n; base += len) {
    cplx* p = data + base;
    for (std::size_t j = 0; j < quarter; j += V::width) {
      V vw1 = V::load(w1 + j);
      V vw2 = V::load(w2 + j);
      if constexpr (Inverse) {
        vw1 = vw1.conj_();
        vw2 = vw2.conj_();
      }
      const V a = V::load(p + j);
      const V b = V::load(p + j + quarter);
      const V c = V::load(p + j + 2 * quarter);
      const V d = V::load(p + j + 3 * quarter);
      // Level s on the two half-blocks.
      const V t0 = b.cmul(vw1);
      const V a1 = a + t0;
      const V b1 = a - t0;
      const V t1 = d.cmul(vw1);
      const V c1 = c + t1;
      const V d1 = c - t1;
      // Level s+1 across the half-blocks.
      const V t2 = c1.cmul(vw2);
      const V t3raw = d1.cmul(vw2);
      const V t3 = Inverse ? t3raw.mul_i() : t3raw.mul_neg_i();
      V y0 = a1 + t2;
      V y1 = b1 + t3;
      V y2 = a1 - t2;
      V y3 = b1 - t3;
      if constexpr (Scaled) {
        y0 = y0.scale(scale);
        y1 = y1.scale(scale);
        y2 = y2.scale(scale);
        y3 = y3.scale(scale);
      }
      y0.store(p + j);
      y1.store(p + j + quarter);
      y2.store(p + j + 2 * quarter);
      y3.store(p + j + 3 * quarter);
    }
  }
}

template <class V>
void k_radix4_stage(cplx* data, std::size_t n, std::size_t len,
                    const cplx* w1, const cplx* w2, bool inverse,
                    double scale) {
  if (scale == 1.0) {
    if (inverse) {
      k_radix4_stage_t<V, true, false>(data, n, len, w1, w2, scale);
    } else {
      k_radix4_stage_t<V, false, false>(data, n, len, w1, w2, scale);
    }
  } else {
    if (inverse) {
      k_radix4_stage_t<V, true, true>(data, n, len, w1, w2, scale);
    } else {
      k_radix4_stage_t<V, false, true>(data, n, len, w1, w2, scale);
    }
  }
}

/// The radix-4 butterfly of k_radix4_stage_t on four registers: exactly the
/// same operation sequence (cmul orientations and the structural +/-i
/// rotation on the second level), shared so the fused radix-16 stage is
/// bit-identical to two radix-4 stages run back to back.
template <class V, bool Inverse>
inline void radix4_butterfly(V& a, V& b, V& c, V& d, V vw1, V vw2) {
  const V t0 = b.cmul(vw1);
  const V a1 = a + t0;
  const V b1 = a - t0;
  const V t1 = d.cmul(vw1);
  const V c1 = c + t1;
  const V d1 = c - t1;
  const V t2 = c1.cmul(vw2);
  const V t3raw = d1.cmul(vw2);
  const V t3 = Inverse ? t3raw.mul_i() : t3raw.mul_neg_i();
  a = a1 + t2;
  b = b1 + t3;
  c = a1 - t2;
  d = b1 - t3;
}

/// One fused radix-16 stage: the radix-4 stage of block length len/4
/// followed by the radix-4 stage of block length len, both performed while
/// the sixteen e-strided elements (e = len/16, must be a multiple of
/// V::width — true for len >= 32 at width <= 2) sit in registers. The two
/// stages use their own packed twiddle runs unchanged, so fusing reorders
/// no arithmetic: one streaming pass, same bits.
template <class V, bool Inverse, bool Scaled>
void k_radix16_stage_t(cplx* data, std::size_t n, std::size_t len,
                       const cplx* w1a, const cplx* w2a, const cplx* w1b,
                       const cplx* w2b, double scale) {
  const std::size_t e = len >> 4;
  for (std::size_t base = 0; base < n; base += len) {
    cplx* p = data + base;
    for (std::size_t j = 0; j < e; j += V::width) {
      V vw1a = V::load(w1a + j);
      V vw2a = V::load(w2a + j);
      if constexpr (Inverse) {
        vw1a = vw1a.conj_();
        vw2a = vw2a.conj_();
      }
      V x[16];
      for (std::size_t k = 0; k < 16; ++k) {
        x[k] = V::load(p + j + k * e);
      }
      // Inner stage: four len/4 blocks at offsets 4*m*e, butterfly j in
      // each couples x[4m + 0..3].
      for (std::size_t m = 0; m < 4; ++m) {
        radix4_butterfly<V, Inverse>(x[4 * m], x[4 * m + 1], x[4 * m + 2],
                                     x[4 * m + 3], vw1a, vw2a);
      }
      // Outer stage: butterfly j' = j + m*e couples x[m], x[m+4], x[m+8],
      // x[m+12] with the outer run's twiddles at j'.
      for (std::size_t m = 0; m < 4; ++m) {
        V vw1b = V::load(w1b + j + m * e);
        V vw2b = V::load(w2b + j + m * e);
        if constexpr (Inverse) {
          vw1b = vw1b.conj_();
          vw2b = vw2b.conj_();
        }
        radix4_butterfly<V, Inverse>(x[m], x[m + 4], x[m + 8], x[m + 12],
                                     vw1b, vw2b);
      }
      for (std::size_t k = 0; k < 16; ++k) {
        if constexpr (Scaled) x[k] = x[k].scale(scale);
        x[k].store(p + j + k * e);
      }
    }
  }
}

template <class V>
void k_radix16_stage(cplx* data, std::size_t n, std::size_t len,
                     const cplx* w1a, const cplx* w2a, const cplx* w1b,
                     const cplx* w2b, bool inverse, double scale) {
  if (scale == 1.0) {
    if (inverse) {
      k_radix16_stage_t<V, true, false>(data, n, len, w1a, w2a, w1b, w2b,
                                        scale);
    } else {
      k_radix16_stage_t<V, false, false>(data, n, len, w1a, w2a, w1b, w2b,
                                         scale);
    }
  } else {
    if (inverse) {
      k_radix16_stage_t<V, true, true>(data, n, len, w1a, w2a, w1b, w2b,
                                       scale);
    } else {
      k_radix16_stage_t<V, false, true>(data, n, len, w1a, w2a, w1b, w2b,
                                        scale);
    }
  }
}

// ================================= real-transform post-pass (see kernels.hpp)
//
// Conjugate-symmetry unpack/pack between the nc-point complex transform Z
// of a packed length-2*nc real signal and its nc+1 half-spectrum X. For
// k = 1..nc/2-1 with mirror j = nc-k and W = omega(2*nc, .):
//   A = (Z_k + conj(Z_j)) / 2        B = (Z_k - conj(Z_j)) / 2
//   X_k = A + (-i*B)*W^k             X_j = conj(A - (-i*B)*W^k)
// plus the exact edges X_0 = Re Z_0 + Im Z_0, X_nc = Re Z_0 - Im Z_0 and
// the self-pair X_{nc/2} = conj(Z_{nc/2}); c2r_prepare applies the inverse
// map (same A/B shape on X with U = i*(B*conj(W^k)), derived from
// W^{nc-k} = -conj(W^k)). The sweep walks k forward and j backward in the
// same iteration (reversed() mirror loads/stores), touching every cache
// line of both halves once. Every per-element operation is elementwise
// add/sub/conj/±i-rotation, an exact scale by 0.5, or cmul_nofma — no FMA
// anywhere — so dst is bitwise identical across all backends; remainder
// pairs run through the contraction-pinned scalar range helpers.

template <class V>
void k_r2c_finalize(cplx* dst, const cplx* src, std::size_t nc,
                    const cplx* wq) {
  constexpr std::size_t W = V::width;
  const std::size_t half = nc / 2;
  const cplx z0 = src[0];  // read before the aliased dst[0] store
  dst[0] = cplx{z0.real() + z0.imag(), 0.0};
  dst[nc] = cplx{z0.real() - z0.imag(), 0.0};
  std::size_t k = 1;
  for (; k + W <= half; k += W) {
    const std::size_t jr = nc - k - (W - 1);  // mirror run, ascending base
    const V zk = V::load(src + k);
    const V zjc = V::load(src + jr).reversed().conj_();
    const V a = (zk + zjc).scale(0.5);
    const V b = (zk - zjc).scale(0.5);
    const V t = b.mul_neg_i().cmul_nofma(V::load(wq + k));
    (a + t).store(dst + k);
    (a - t).conj_().reversed().store(dst + jr);
  }
  if (k < half) scalar_r2c_finalize_range(dst, src, nc, wq, k, half);
  if (half != 0) dst[half] = std::conj(src[half]);
}

// ------------------------- fused last-stage + Hermitian unpack (see
// kernels.hpp). The final butterfly stage of the packed forward spans the
// whole array as one block, so its butterfly (or radix-16 group) at offset
// j and the one at mirror offset stride - j together emit exactly the
// spectrum entries of complete Hermitian pairs: running the two in lockstep
// lets the unpack consume the butterfly outputs in registers, deleting the
// separate finalize read+write sweep. Butterfly ops are radix4_butterfly /
// the scalar shape below (contraction per the enclosing TU, like every
// butterfly kernel); unpack ops follow k_r2c_finalize / the scalar range
// helper. Unlike the post-pass kernels above, no cross-backend bitwise
// claim is made — the butterflies already round per-backend — but for a
// fixed backend the result is deterministic, and the strided gather path
// runs the same kernel so compacted and strided r2c still agree bitwise.

/// Scalar radix-4 butterfly, the width-1 shape of radix4_butterfly
/// (forward): same cmul orientations, same structural -i rotation.
inline void radix4_butterfly_s(cplx& a, cplx& b, cplx& c, cplx& d, cplx w1,
                               cplx w2) {
  const cplx t0 = cmul(b, w1);
  const cplx a1 = a + t0;
  const cplx b1 = a - t0;
  const cplx t1 = cmul(d, w1);
  const cplx c1 = c + t1;
  const cplx d1 = c - t1;
  const cplx t2 = cmul(c1, w2);
  const cplx t3 = mul_neg_i(cmul(d1, w2));
  a = a1 + t2;
  b = b1 + t3;
  c = a1 - t2;
  d = b1 - t3;
}

/// Scalar Hermitian unpack of one pair: zk = Z_k, zj = Z_{nc-k}; writes
/// X_k and X_{nc-k}. Op sequence of scalar_r2c_finalize_range.
inline void r2c_unpack_pair_s(cplx* dst, std::size_t nc, const cplx* wq,
                              std::size_t k, cplx zk, cplx zj) {
  const cplx zjc = std::conj(zj);
  const cplx a{(zk.real() + zjc.real()) * 0.5,
               (zk.imag() + zjc.imag()) * 0.5};
  const cplx b{(zk.real() - zjc.real()) * 0.5,
               (zk.imag() - zjc.imag()) * 0.5};
  const cplx t = cmul(mul_neg_i(b), wq[k]);
  dst[k] = a + t;
  dst[nc - k] = std::conj(a - t);
}

/// Vector Hermitian unpack of W pairs: zk holds Z at k..k+W-1 (natural
/// order), zj_rev holds the mirrors Z_{nc-k-w} in lane w (i.e. a reversed
/// load of the mirror run). Writes X at k.. and, reversed, at the mirror
/// run nc-k-W+1... Op sequence of k_r2c_finalize's main loop.
template <class V>
inline void r2c_unpack_pair_v(cplx* dst, std::size_t nc, const cplx* wq,
                              std::size_t k, V zk, V zj_rev) {
  const V zjc = zj_rev.conj_();
  const V a = (zk + zjc).scale(0.5);
  const V b = (zk - zjc).scale(0.5);
  const V t = b.mul_neg_i().cmul_nofma(V::load(wq + k));
  (a + t).store(dst + k);
  (a - t).conj_().reversed().store(dst + nc - k - (V::width - 1));
}

template <class V>
void k_r2c_last_stage4(cplx* dst, std::size_t nc, const cplx* w1,
                       const cplx* w2, const cplx* wq) {
  constexpr std::size_t W = V::width;
  const std::size_t q = nc >> 2;  // butterfly count == quarter block
  // Butterfly 0 ({0, q, 2q, 3q}) is self-mirrored: it yields the exact
  // edges X_0/X_nc, the self-pair X_{nc/2} = conj(Z_{nc/2}), and the
  // Hermitian pair (q, 3q).
  {
    cplx z0 = dst[0], z1 = dst[q], z2 = dst[2 * q], z3 = dst[3 * q];
    radix4_butterfly_s(z0, z1, z2, z3, w1[0], w2[0]);
    dst[0] = cplx{z0.real() + z0.imag(), 0.0};
    dst[nc] = cplx{z0.real() - z0.imag(), 0.0};
    dst[2 * q] = std::conj(z2);
    r2c_unpack_pair_s(dst, nc, wq, q, z1, z3);
  }
  // Main sweep: ascending butterflies j..j+W-1 in lockstep with their
  // mirrors q-j-W+1..q-j. The eight outputs pair as (j, nc-j),
  // (q-j, 3q+j), (q+j, 3q-j), (2q-j, 2q+j) — lanes line up after one
  // reversal on the zj side, exactly the finalize sweep's mirror-run trick.
  std::size_t j = 1;
  for (; j + W <= q - j - W + 1; j += W) {
    const std::size_t jr = q - j - (W - 1);
    V a = V::load(dst + j), b = V::load(dst + j + q),
      c = V::load(dst + j + 2 * q), d = V::load(dst + j + 3 * q);
    radix4_butterfly<V, false>(a, b, c, d, V::load(w1 + j), V::load(w2 + j));
    V am = V::load(dst + jr), bm = V::load(dst + jr + q),
      cm = V::load(dst + jr + 2 * q), dm = V::load(dst + jr + 3 * q);
    radix4_butterfly<V, false>(am, bm, cm, dm, V::load(w1 + jr),
                               V::load(w2 + jr));
    r2c_unpack_pair_v<V>(dst, nc, wq, j, a, dm.reversed());
    r2c_unpack_pair_v<V>(dst, nc, wq, jr, am, d.reversed());
    r2c_unpack_pair_v<V>(dst, nc, wq, q + j, b, cm.reversed());
    r2c_unpack_pair_v<V>(dst, nc, wq, q + jr, bm, c.reversed());
  }
  // Scalar middle pairs left over once the runs would collide.
  for (; 2 * j < q; ++j) {
    const std::size_t jr = q - j;
    cplx a = dst[j], b = dst[j + q], c = dst[j + 2 * q],
         d = dst[j + 3 * q];
    radix4_butterfly_s(a, b, c, d, w1[j], w2[j]);
    cplx am = dst[jr], bm = dst[jr + q], cm = dst[jr + 2 * q],
         dm = dst[jr + 3 * q];
    radix4_butterfly_s(am, bm, cm, dm, w1[jr], w2[jr]);
    r2c_unpack_pair_s(dst, nc, wq, j, a, dm);
    r2c_unpack_pair_s(dst, nc, wq, jr, am, d);
    r2c_unpack_pair_s(dst, nc, wq, q + j, b, cm);
    r2c_unpack_pair_s(dst, nc, wq, q + jr, bm, c);
  }
  if (2 * j == q) {
    // Self-mirrored butterfly q/2: its four outputs form two pairs.
    cplx a = dst[j], b = dst[j + q], c = dst[j + 2 * q],
         d = dst[j + 3 * q];
    radix4_butterfly_s(a, b, c, d, w1[j], w2[j]);
    r2c_unpack_pair_s(dst, nc, wq, j, a, d);
    r2c_unpack_pair_s(dst, nc, wq, q + j, b, c);
  }
}

/// Scalar radix-16 group butterfly at offset j (element stride e): the
/// width-1 shape of k_radix16_stage_t's in-register two-stage pass.
inline void radix16_group_s(cplx (&x)[16], const cplx* w1a, const cplx* w2a,
                            const cplx* w1b, const cplx* w2b, std::size_t j,
                            std::size_t e) {
  for (std::size_t m = 0; m < 4; ++m) {
    radix4_butterfly_s(x[4 * m], x[4 * m + 1], x[4 * m + 2], x[4 * m + 3],
                       w1a[j], w2a[j]);
  }
  for (std::size_t m = 0; m < 4; ++m) {
    radix4_butterfly_s(x[m], x[m + 4], x[m + 8], x[m + 12], w1b[j + m * e],
                       w2b[j + m * e]);
  }
}

template <class V>
void k_r2c_last_stage16(cplx* dst, std::size_t nc, const cplx* w1a,
                        const cplx* w2a, const cplx* w1b, const cplx* w2b,
                        const cplx* wq) {
  constexpr std::size_t W = V::width;
  const std::size_t e = nc >> 4;  // group count == element stride
  // Group 0 ({k*e}) is self-mirrored: edges from Z_0, self-pair at
  // 8e == nc/2, and the pairs (k*e, (16-k)*e) for k = 1..7.
  {
    cplx x[16];
    for (std::size_t k = 0; k < 16; ++k) x[k] = dst[k * e];
    radix16_group_s(x, w1a, w2a, w1b, w2b, 0, e);
    dst[0] = cplx{x[0].real() + x[0].imag(), 0.0};
    dst[nc] = cplx{x[0].real() - x[0].imag(), 0.0};
    dst[8 * e] = std::conj(x[8]);
    for (std::size_t k = 1; k < 8; ++k) {
      r2c_unpack_pair_s(dst, nc, wq, k * e, x[k], x[16 - k]);
    }
  }
  // Main sweep: groups j..j+W-1 in lockstep with mirrors e-j-W+1..e-j;
  // output k of group j pairs with output 15-k of the mirror group.
  std::size_t j = 1;
  for (; j + W <= e - j - W + 1; j += W) {
    const std::size_t jr = e - j - (W - 1);
    V x[16], y[16];
    for (std::size_t k = 0; k < 16; ++k) x[k] = V::load(dst + j + k * e);
    {
      const V vw1a = V::load(w1a + j);
      const V vw2a = V::load(w2a + j);
      for (std::size_t m = 0; m < 4; ++m) {
        radix4_butterfly<V, false>(x[4 * m], x[4 * m + 1], x[4 * m + 2],
                                   x[4 * m + 3], vw1a, vw2a);
      }
      for (std::size_t m = 0; m < 4; ++m) {
        radix4_butterfly<V, false>(x[m], x[m + 4], x[m + 8], x[m + 12],
                                   V::load(w1b + j + m * e),
                                   V::load(w2b + j + m * e));
      }
    }
    for (std::size_t k = 0; k < 16; ++k) y[k] = V::load(dst + jr + k * e);
    {
      const V vw1a = V::load(w1a + jr);
      const V vw2a = V::load(w2a + jr);
      for (std::size_t m = 0; m < 4; ++m) {
        radix4_butterfly<V, false>(y[4 * m], y[4 * m + 1], y[4 * m + 2],
                                   y[4 * m + 3], vw1a, vw2a);
      }
      for (std::size_t m = 0; m < 4; ++m) {
        radix4_butterfly<V, false>(y[m], y[m + 4], y[m + 8], y[m + 12],
                                   V::load(w1b + jr + m * e),
                                   V::load(w2b + jr + m * e));
      }
    }
    for (std::size_t k = 0; k < 8; ++k) {
      r2c_unpack_pair_v<V>(dst, nc, wq, j + k * e, x[k], y[15 - k].reversed());
      r2c_unpack_pair_v<V>(dst, nc, wq, jr + k * e, y[k],
                           x[15 - k].reversed());
    }
  }
  // Scalar middle group pairs.
  for (; 2 * j < e; ++j) {
    const std::size_t jr = e - j;
    cplx x[16], y[16];
    for (std::size_t k = 0; k < 16; ++k) x[k] = dst[j + k * e];
    radix16_group_s(x, w1a, w2a, w1b, w2b, j, e);
    for (std::size_t k = 0; k < 16; ++k) y[k] = dst[jr + k * e];
    radix16_group_s(y, w1a, w2a, w1b, w2b, jr, e);
    for (std::size_t k = 0; k < 8; ++k) {
      r2c_unpack_pair_s(dst, nc, wq, j + k * e, x[k], y[15 - k]);
      r2c_unpack_pair_s(dst, nc, wq, jr + k * e, y[k], x[15 - k]);
    }
  }
  if (2 * j == e) {
    // Self-mirrored group e/2: output k pairs with output 15-k in-group.
    cplx x[16];
    for (std::size_t k = 0; k < 16; ++k) x[k] = dst[j + k * e];
    radix16_group_s(x, w1a, w2a, w1b, w2b, j, e);
    for (std::size_t k = 0; k < 8; ++k) {
      r2c_unpack_pair_s(dst, nc, wq, j + k * e, x[k], x[15 - k]);
    }
  }
}

template <class V>
void k_c2r_prepare(cplx* dst, const cplx* src, std::size_t nc,
                   const cplx* wq, bool conjugate) {
  constexpr std::size_t W = V::width;
  const std::size_t half = nc / 2;
  const cplx x0 = src[0];
  const cplx xn = src[nc];
  const cplx z0{(x0.real() + xn.real()) * 0.5,
                (x0.real() - xn.real()) * 0.5};
  dst[0] = conjugate ? std::conj(z0) : z0;
  std::size_t k = 1;
  for (; k + W <= half; k += W) {
    const std::size_t jr = nc - k - (W - 1);
    const V xk = V::load(src + k);
    const V xjc = V::load(src + jr).reversed().conj_();
    const V a = (xk + xjc).scale(0.5);
    const V b = (xk - xjc).scale(0.5);
    const V u = b.cmul_nofma(V::load(wq + k).conj_()).mul_i();
    V zk = a + u;
    V zj = (a - u).conj_();
    if (conjugate) {
      zk = zk.conj_();
      zj = zj.conj_();
    }
    zk.store(dst + k);
    zj.reversed().store(dst + jr);
  }
  if (k < half) {
    scalar_c2r_prepare_range(dst, src, nc, wq, conjugate, k, half);
  }
  if (half != 0) {
    const cplx xh = src[half];
    dst[half] = conjugate ? xh : std::conj(xh);
  }
}

// =========================================== DMR twiddle (see kernels.hpp)
//
// omega_n^j = hi[j >> shift] * lo[j & mask] from one of the two table pairs,
// lane l carrying j + l*step. Every product is cmul_nofma, so a lane's bits
// do not depend on the backend; remainders and votes call the scalar TU.

/// Twiddles for lanes j, j + step, ... from table pair c.
template <class V>
inline V table_twiddles(const TwiddleTableView& t, int c, std::size_t j,
                        std::size_t step) {
  const std::size_t mask = (std::size_t{1} << t.shift) - 1;
  const cplx* hp[V::width];
  const cplx* lp[V::width];
  for (std::size_t l = 0; l < V::width; ++l) {
    const std::size_t jl = j + l * step;
    hp[l] = t.hi[c] + (jl >> t.shift);
    lp[l] = t.lo[c] + (jl & mask);
  }
  return V::gather_ptrs(hp).cmul_nofma(V::gather_ptrs(lp));
}

/// Copy 1 (pair 0) written to dst[0..len).
template <class V>
void twiddle_write(const cplx* src, std::size_t stride, cplx* dst,
                   std::size_t len, std::size_t j0, std::size_t step,
                   const TwiddleTableView& t) {
  constexpr std::size_t W = V::width;
  std::size_t i = 0;
  for (; i + W <= len; i += W) {
    V::gather(src + i * stride, stride)
        .cmul_nofma(table_twiddles<V>(t, 0, j0 + i * step, step))
        .store(dst + i);
  }
  scalar_twiddle_write_range(src, stride, dst, i, len, j0, step, t);
}

/// Copies 1 and 2 of lanes [i, i+W): copy 2 from pair 1, copy 1 either
/// already in dst (InRegs == false, after the hook) or evaluated here from
/// pair 0 and stored, at dst[perm[i + l]] when perm is non-null. Clears
/// `agree` on any lane mismatch; returns copy 1.
template <class V, bool InRegs>
inline V dmr_lanes(const cplx* src, std::size_t stride, cplx* dst,
                   std::size_t i, std::size_t j, std::size_t step,
                   const TwiddleTableView& t, const std::uint32_t* perm,
                   bool& agree) {
  const V x = V::gather(src + i * stride, stride);
  const V c2 = x.cmul_nofma(table_twiddles<V>(t, 1, j, step));
  V c1;
  if constexpr (InRegs) {
    c1 = x.cmul_nofma(table_twiddles<V>(t, 0, j, step));
    if (perm == nullptr) {
      c1.store(dst + i);
    } else {
      cplx lanes[V::width];
      c1.store(lanes);
      for (std::size_t l = 0; l < V::width; ++l) dst[perm[i + l]] = lanes[l];
    }
  } else {
    c1 = V::load(dst + i);
  }
  agree = agree && V::all_eq(c1, c2);
  return c1;
}

/// dst[perm[i]] = dst[i] for an involution perm: one swap per pair.
inline void permute_involution(cplx* dst, std::size_t len,
                               const std::uint32_t* perm) {
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t j = perm[i];
    if (i < j) std::swap(dst[i], dst[j]);
  }
}

/// Verify pass. The vector loop only flags disagreement; faults are rare,
/// so a flagged run is re-verified element by element in the scalar TU
/// (copy 2 recomputed bitwise, mismatches voted) and its weighted sum
/// recomputed over the voted output with the same accumulator structure.
/// Either way the optional sum + energy follow weighted_sum_energy's order.
/// With perm (InRegs only, len a multiple of W), copy 1 is stored permuted
/// while the sums still run in natural order; a flagged run is re-verified
/// in natural order, recomputing copy 1 (bitwise the stored one), and
/// permuted after the vote.
template <class V, bool InRegs>
std::size_t twiddle_verify(const cplx* src, std::size_t stride, cplx* dst,
                           std::size_t len, std::size_t j0, std::size_t step,
                           const TwiddleTableView& t, const cplx* cw,
                           checksum::SumEnergy* se,
                           const std::uint32_t* perm) {
  constexpr std::size_t W = V::width;
  bool agree = true;
  std::size_t i = 0;
  V s0 = V::zero(), s1 = V::zero();
  V e0 = V::zero(), e1 = V::zero();
  if (cw == nullptr) {
    for (; i + W <= len; i += W) {
      (void)dmr_lanes<V, InRegs>(src, stride, dst, i, j0 + i * step, step, t,
                                 perm, agree);
    }
  } else {
    for (; i + 2 * W <= len; i += 2 * W) {
      const V v0 = dmr_lanes<V, InRegs>(src, stride, dst, i, j0 + i * step,
                                        step, t, perm, agree);
      const V v1 = dmr_lanes<V, InRegs>(src, stride, dst, i + W,
                                        j0 + (i + W) * step, step, t, perm,
                                        agree);
      s0 = s0 + V::load(cw + i).cmul(v0);
      s1 = s1 + V::load(cw + i + W).cmul(v1);
      e0 = v0.fmadd_elem(v0, e0);
      e1 = v1.fmadd_elem(v1, e1);
    }
    for (; i + W <= len; i += W) {
      const V v0 = dmr_lanes<V, InRegs>(src, stride, dst, i, j0 + i * step,
                                        step, t, perm, agree);
      s0 = s0 + V::load(cw + i).cmul(v0);
      e0 = v0.fmadd_elem(v0, e0);
    }
  }
  if (perm != nullptr && !agree) {
    const std::size_t mismatches = scalar_twiddle_verify_range(
        src, stride, dst, 0, len, j0, step, t, /*both=*/true);
    if (cw != nullptr) *se = k_weighted_sum_energy<V>(cw, dst, len);
    permute_involution(dst, len, perm);
    return mismatches;
  }
  std::size_t mismatches = scalar_twiddle_verify_range(
      src, stride, dst, i, len, j0, step, t, InRegs);
  if (!agree) {
    mismatches += scalar_twiddle_verify_range(src, stride, dst, 0, i, j0,
                                              step, t, false);
    if (cw != nullptr) *se = k_weighted_sum_energy<V>(cw, dst, len);
    return mismatches;
  }
  if (cw != nullptr) {
    se->sum = (s0 + s1).hsum();
    se->energy = (e0 + e1).hsum_slots();
    for (; i < len; ++i) {
      se->sum += cmul(cw[i], dst[i]);
      se->energy += norm2(dst[i]);
    }
  }
  return mismatches;
}

template <class V>
std::size_t k_dmr_twiddle(const cplx* src, std::size_t stride, cplx* dst,
                          std::size_t len, std::size_t j0, std::size_t step,
                          const TwiddleTableView& t, bool redundant,
                          TwiddleHook hook, void* hook_ctx, const cplx* cw,
                          checksum::SumEnergy* se,
                          const std::uint32_t* perm) {
  if (!redundant) {
    twiddle_write<V>(src, stride, dst, len, j0, step, t);
    return 0;
  }
  if (hook == nullptr) {
    return twiddle_verify<V, true>(src, stride, dst, len, j0, step, t, cw, se,
                                   perm);
  }
  // The hook sees copy 1 in natural order; the vote runs on it there.
  twiddle_write<V>(src, stride, dst, len, j0, step, t);
  hook(hook_ctx, dst, len);
  const std::size_t mismatches = twiddle_verify<V, false>(
      src, stride, dst, len, j0, step, t, cw, se, nullptr);
  if (perm != nullptr) permute_involution(dst, len, perm);
  return mismatches;
}

// ============================================== vertical DFTs for combine

// The codelet math from dft/codelets.cpp transliterated onto vectors: each
// call performs V::width independent r-point DFTs, one per lane.

template <class V>
inline void vdft2(V* x) {
  const V a = x[0];
  const V b = x[1];
  x[0] = a + b;
  x[1] = a - b;
}

template <class V>
inline void vdft4(V* x) {
  const V s02 = x[0] + x[2];
  const V d02 = x[0] - x[2];
  const V s13 = x[1] + x[3];
  const V d13 = x[1] - x[3];
  x[0] = s02 + s13;
  x[1] = d02 + d13.mul_neg_i();
  x[2] = s02 - s13;
  x[3] = d02 + d13.mul_i();
}

template <class V>
inline void vdft8(V* x) {
  V e[4] = {x[0], x[2], x[4], x[6]};
  V o[4] = {x[1], x[3], x[5], x[7]};
  vdft4(e);
  vdft4(o);
  using dft::kHalfSqrt2;
  const V t1 = o[1].cmul(V::broadcast({kHalfSqrt2, -kHalfSqrt2}));
  const V t2 = o[2].mul_neg_i();
  const V t3 = o[3].cmul(V::broadcast({-kHalfSqrt2, -kHalfSqrt2}));
  x[0] = e[0] + o[0];
  x[1] = e[1] + t1;
  x[2] = e[2] + t2;
  x[3] = e[3] + t3;
  x[4] = e[0] - o[0];
  x[5] = e[1] - t1;
  x[6] = e[2] - t2;
  x[7] = e[3] - t3;
}

template <class V>
inline void vdft16(V* x) {
  V e[8] = {x[0], x[2], x[4], x[6], x[8], x[10], x[12], x[14]};
  V o[8] = {x[1], x[3], x[5], x[7], x[9], x[11], x[13], x[15]};
  vdft8(e);
  vdft8(o);
  using dft::kCosPi8;
  using dft::kHalfSqrt2;
  using dft::kSinPi8;
  V t[8];
  t[0] = o[0];
  t[1] = o[1].cmul(V::broadcast({kCosPi8, -kSinPi8}));
  t[2] = o[2].cmul(V::broadcast({kHalfSqrt2, -kHalfSqrt2}));
  t[3] = o[3].cmul(V::broadcast({kSinPi8, -kCosPi8}));
  t[4] = o[4].mul_neg_i();
  t[5] = o[5].cmul(V::broadcast({-kSinPi8, -kCosPi8}));
  t[6] = o[6].cmul(V::broadcast({-kHalfSqrt2, -kHalfSqrt2}));
  t[7] = o[7].cmul(V::broadcast({-kCosPi8, -kSinPi8}));
  for (std::size_t k = 0; k < 8; ++k) {
    x[k] = e[k] + t[k];
    x[k + 8] = e[k] - t[k];
  }
}

template <class V, std::size_t R>
void k_combine_r(cplx* out, std::size_t m, const cplx* tw) {
  std::size_t k1 = 0;
  for (; k1 + V::width <= m; k1 += V::width) {
    V buf[R];
    buf[0] = V::load(out + k1);
    for (std::size_t t = 1; t < R; ++t) {
      buf[t] = V::load(out + k1 + m * t).cmul(V::load(tw + (t - 1) * m + k1));
    }
    if constexpr (R == 2) {
      vdft2(buf);
    } else if constexpr (R == 4) {
      vdft4(buf);
    } else if constexpr (R == 8) {
      vdft8(buf);
    } else {
      static_assert(R == 16);
      vdft16(buf);
    }
    for (std::size_t t = 0; t < R; ++t) buf[t].store(out + k1 + m * t);
  }
  if (k1 < m) scalar_combine_columns(out, 1, m, R, tw, k1, m);
}

template <class V>
void k_combine(cplx* out, std::size_t os, std::size_t m, std::size_t r,
               const cplx* tw) {
  if (os == 1) {
    switch (r) {
      case 2:
        return k_combine_r<V, 2>(out, m, tw);
      case 4:
        return k_combine_r<V, 4>(out, m, tw);
      case 8:
        return k_combine_r<V, 8>(out, m, tw);
      case 16:
        return k_combine_r<V, 16>(out, m, tw);
      default:
        break;
    }
  }
  scalar_combine_columns(out, os, m, r, tw, 0, m);
}

}  // namespace ftfft::simd::impl
