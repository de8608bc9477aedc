#include "fft/real_fft.hpp"

#include <cstring>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::fft {
namespace {
PlanRegistry<std::size_t, RealFftPlan> real_plan_cache("real-plan");
}  // namespace

RealFftPlan::RealFftPlan(std::size_t n) : n_(n), nc_(n / 2) {
  if (n < 2 || !is_pow2(n)) {
    throw std::invalid_argument(
        "RealFftPlan: n must be a power of two >= 2");
  }
  cplan_ = InplaceRadix2Plan::get(nc_);
  wq_.resize(nc_ / 2 + 1);
  for (std::size_t k = 0; k < wq_.size(); ++k) wq_[k] = omega(n_, k);
}

void RealFftPlan::r2c(const double* in, cplx* out) const {
  // Pack: the n reals ARE the nc interleaved complex values, so the packed
  // transform can gather straight out of the caller's array — forward_copy
  // fuses the pack copy into the bit-reversal, and the Hermitian unpack is
  // fused into the final butterfly pass (the half-spectrum falls out of the
  // last stage in one sweep instead of butterfly-sweep + unpack-sweep).
  cplx* z = out;
  if (nc_ >= 8) {
    const auto last =
        cplan_->forward_copy_open_last(reinterpret_cast<const cplx*>(in), z);
    finalize_open_last(out, last);
    return;
  }
  if (nc_ > 1) {
    cplan_->forward_copy(reinterpret_cast<const cplx*>(in), z);
  } else {
    std::memcpy(static_cast<void*>(out), in, n_ * sizeof(double));
  }
  simd::fft_kernels().r2c_finalize(out, z, nc_, wq_.data());
}

void RealFftPlan::r2c_strided(const double* in, std::size_t stride,
                              cplx* out) const {
  if (stride == 1) {
    r2c(in, out);
    return;
  }
  double* packed = reinterpret_cast<double*>(out);
  for (std::size_t j = 0; j < n_; ++j) packed[j] = in[j * stride];
  cplx* z = out;
  if (nc_ >= 8) {
    // Same fused last stage as the compact path, so strided output stays
    // bitwise identical to r2c on the gathered signal.
    finalize_open_last(out, cplan_->forward_open_last(z));
    return;
  }
  if (nc_ > 1) cplan_->forward(z);
  simd::fft_kernels().r2c_finalize(out, z, nc_, wq_.data());
}

void RealFftPlan::finalize_open_last(
    cplx* out, const InplaceRadix2Plan::OpenLastStage& last) const {
  const auto& kernels = simd::fft_kernels();
  if (last.radix == 4) {
    kernels.r2c_last_stage4(out, nc_, last.w1a, last.w2a, wq_.data());
  } else {
    kernels.r2c_last_stage16(out, nc_, last.w1a, last.w2a, last.w1b,
                             last.w2b, wq_.data());
  }
}

void RealFftPlan::c2r(const cplx* in, double* out) const {
  // Unsplit straight into the caller's buffer viewed as nc complex values,
  // then the 1/nc-normalized in-place inverse (scaling fused into its final
  // stage) — no scratch, no extra sweep. 1/nc is the whole normalization:
  // the packing is lossless, so the half-length inverse already yields the
  // 1/n-normalized real signal.
  cplx* z = reinterpret_cast<cplx*>(out);
  simd::fft_kernels().c2r_prepare(z, in, nc_, wq_.data(), false);
  if (nc_ > 1) cplan_->inverse(z);
}

std::shared_ptr<const RealFftPlan> RealFftPlan::get(std::size_t n) {
  return real_plan_cache.get_or_build(
      n, [n] { return std::make_shared<const RealFftPlan>(n); });
}

void r2c(const double* in, std::size_t n, cplx* out) {
  RealFftPlan::get(n)->r2c(in, out);
}

void c2r(const cplx* in, std::size_t n, double* out) {
  RealFftPlan::get(n)->c2r(in, out);
}

}  // namespace ftfft::fft
