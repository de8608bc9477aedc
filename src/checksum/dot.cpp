#include "checksum/dot.hpp"

#include "common/math_util.hpp"
#include "simd/dispatch.hpp"

// Stride-1 calls — the per-layer verification hot path of the online scheme —
// go through the dispatched SIMD kernels (simd/kernels_impl.hpp); the strided
// loops below are the general fallback and the readable statement of each
// primitive's semantics. Both sides split long reductions across independent
// accumulators, so summation order differs from a naive single chain (and
// between backends); the detection thresholds model exactly this kind of
// round-off (see dot.hpp and roundoff/model.hpp).

namespace ftfft::checksum {

cplx weighted_sum(const cplx* w, const cplx* x, std::size_t n,
                  std::size_t stride) {
  if (stride == 1) return simd::checksum_kernels().weighted_sum(w, x, n);
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) {
    acc += cmul(w[j], x[j * stride]);
  }
  return acc;
}

DualSum dual_weighted_sum(const cplx* w, const cplx* x, std::size_t n,
                          std::size_t stride) {
  if (stride == 1) return simd::checksum_kernels().dual_weighted_sum(w, x, n);
  DualSum out;
  if (w == nullptr) {
    for (std::size_t j = 0; j < n; ++j) {
      const cplx v = x[j * stride];
      out.plain += v;
      out.indexed += static_cast<double>(j) * v;
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const cplx p = cmul(w[j], x[j * stride]);
      out.plain += p;
      out.indexed += static_cast<double>(j) * p;
    }
  }
  return out;
}

double energy(const cplx* x, std::size_t n, std::size_t stride) {
  if (stride == 1) return simd::checksum_kernels().energy(x, n);
  // Two accumulators even on the strided path: one chain would serialize the
  // loop on floating-point add latency.
  double acc0 = 0.0;
  double acc1 = 0.0;
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    acc0 += norm2(x[j * stride]);
    acc1 += norm2(x[(j + 1) * stride]);
  }
  if (j < n) acc0 += norm2(x[j * stride]);
  return acc0 + acc1;
}

cplx plain_sum(const cplx* x, std::size_t n, std::size_t stride) {
  cplx acc[4] = {};  // four chains hide the add latency
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    for (std::size_t u = 0; u < 4; ++u) acc[u] += x[(j + u) * stride];
  }
  for (; j < n; ++j) acc[0] += x[j * stride];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

cplx omega3_weighted_sum(const cplx* x, std::size_t n, std::size_t stride) {
  if (stride == 1) return simd::checksum_kernels().omega3_weighted_sum(x, n);
  cplx b0{0.0, 0.0}, b1{0.0, 0.0}, b2{0.0, 0.0};
  std::size_t j = 0;
  for (; j + 3 <= n; j += 3) {
    b0 += x[j * stride];
    b1 += x[(j + 1) * stride];
    b2 += x[(j + 2) * stride];
  }
  if (j < n) b0 += x[j * stride];
  if (j + 1 < n) b1 += x[(j + 1) * stride];
  return b0 + cmul(omega3_pow(1), b1) + cmul(omega3_pow(2), b2);
}

DualSum copy_dual_sum(cplx* dst, const cplx* src, std::size_t n,
                      double* energy) {
  return simd::checksum_kernels().copy_dual_sum(dst, src, n, energy);
}

SumEnergy weighted_sum_energy(const cplx* w, const cplx* x, std::size_t n,
                              std::size_t stride) {
  if (stride == 1) return simd::checksum_kernels().weighted_sum_energy(w, x, n);
  SumEnergy out;
  for (std::size_t j = 0; j < n; ++j) {
    const cplx v = x[j * stride];
    out.sum += cmul(w[j], v);
    out.energy += norm2(v);
  }
  return out;
}

SumEnergy weighted_sum_energy_at(const cplx* w, const cplx* x,
                                 const std::uint32_t* idx, std::size_t n) {
  return simd::checksum_kernels().weighted_sum_energy_at(w, x, idx, n);
}

DualSumEnergy dual_weighted_sum_energy(const cplx* w, const cplx* x,
                                       std::size_t n, std::size_t stride) {
  if (stride == 1) {
    return simd::checksum_kernels().dual_weighted_sum_energy(w, x, n);
  }
  DualSumEnergy out;
  if (w == nullptr) {
    for (std::size_t j = 0; j < n; ++j) {
      const cplx v = x[j * stride];
      out.sums.plain += v;
      out.sums.indexed += static_cast<double>(j) * v;
      out.energy += norm2(v);
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const cplx v = x[j * stride];
      const cplx p = cmul(w[j], v);
      out.sums.plain += p;
      out.sums.indexed += static_cast<double>(j) * p;
      out.energy += norm2(v);
    }
  }
  return out;
}

}  // namespace ftfft::checksum
