// NEON backend (aarch64): one complex double per float64x2_t register.
//
// Width is 1, so there is no data-parallel fan-out over lanes; the win over
// the scalar reference comes from fused multiply-add in the complex multiply
// and from keeping butterflies entirely in vector registers. NEON is baseline
// on aarch64, so no extra compile flags or runtime probing are needed — the
// TU compiles to the real table exactly when targeting aarch64.
#include "simd/kernels.hpp"

#if defined(__aarch64__)

#include "simd/kernels_impl.hpp"
#include "simd/vec.hpp"

namespace ftfft::simd {
namespace {

using V = NeonVec;

void n_radix2_stage0(cplx* data, std::size_t n) {
  impl::k_radix2_stage0_w1<V>(data, n);
}

void n_radix2_stage0_from(cplx* dst, const cplx* src, std::size_t n) {
  impl::k_radix2_stage0_from_w1<V>(dst, src, n);
}

void n_radix4_first_stage(cplx* data, std::size_t n, bool inverse) {
  impl::k_radix4_first_stage_w1<V>(data, n, inverse);
}

void n_radix4_first_stage_from(cplx* dst, const cplx* src, std::size_t n,
                               bool inverse) {
  impl::k_radix4_first_stage_from_w1<V>(dst, src, n, inverse);
}

constexpr FftKernels kNeonFft = {
    n_radix2_stage0,
    n_radix2_stage0_from,
    n_radix4_first_stage,
    n_radix4_first_stage_from,
    impl::k_radix4_stage<V>,
    impl::k_radix16_stage<V>,
    impl::k_combine<V>,
    nullptr,  // dft4: width-1 backend, scalar codelets are already optimal
    nullptr,  // dft8
    nullptr,  // dft16
    impl::k_r2c_finalize<V>,
    impl::k_c2r_prepare<V>,
    impl::k_r2c_last_stage4<V>,
    impl::k_r2c_last_stage16<V>,
    impl::k_dmr_twiddle<V>,
};

constexpr ChecksumKernels kNeonChecksum = {
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

const ChecksumKernels* neon_checksum_kernels() { return &kNeonChecksum; }
const FftKernels* neon_fft_kernels() { return &kNeonFft; }

}  // namespace ftfft::simd

#else  // backend not compiled in

namespace ftfft::simd {

const ChecksumKernels* neon_checksum_kernels() { return nullptr; }
const FftKernels* neon_fft_kernels() { return nullptr; }

}  // namespace ftfft::simd

#endif
