#include "fft/executor.hpp"

#include "dft/codelets.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::fft {
namespace {

void exec_bluestein(const PlanNode& node, const cplx* in, std::size_t is,
                    cplx* out, std::size_t os, cplx* scratch) {
  const std::size_t n = node.n;
  const std::size_t m = node.conv_n;
  // Chirp-premultiplied input, zero padded to the convolution size, then
  // convolved in place: forward, multiply by the precomputed chirp
  // transform, inverse (1/m folded into its last stage).
  cplx* a = scratch;
  for (std::size_t t = 0; t < n; ++t) a[t] = cmul(in[t * is], node.chirp[t]);
  for (std::size_t t = n; t < m; ++t) a[t] = cplx{0.0, 0.0};
  node.conv_plan->forward(a);
  for (std::size_t t = 0; t < m; ++t) a[t] = cmul(a[t], node.chirp_fft[t]);
  node.conv_plan->inverse(a);
  for (std::size_t j = 0; j < n; ++j) out[j * os] = cmul(a[j], node.chirp[j]);
}

}  // namespace

void execute_plan(const PlanNode& node, const cplx* in, std::size_t is,
                  cplx* out, std::size_t os, cplx* scratch) {
  switch (node.kind) {
    case PlanNode::Kind::kCodelet:
      dft::codelet_dft(node.n, in, is, out, os);
      return;
    case PlanNode::Kind::kBluestein:
      exec_bluestein(node, in, is, out, os, scratch);
      return;
    case PlanNode::Kind::kCooleyTukey:
      break;
  }

  const std::size_t r = node.radix;
  const std::size_t m = node.n / r;

  // Sub-transform t1 reads x[t2*r + t1] (stride r*is) and writes its result
  // contiguously (in units of os) to out[m*t1 ...].
  for (std::size_t t1 = 0; t1 < r; ++t1) {
    execute_plan(*node.sub, in + t1 * is, r * is, out + t1 * m * os, os,
                 scratch);
  }
  // Combine: for every k1, an r-point DFT across the strided column
  // out[(k1 + m*t1) * os] with twiddles omega_n^(t1*k1), written back to the
  // same index set {k1 + m*k2}. Contiguous outputs (os == 1) and
  // power-of-two radices run vectorized in the active backend; everything
  // else falls back to the scalar column loop.
  simd::fft_kernels().combine(out, os, m, r, node.twiddles.data());
}

}  // namespace ftfft::fft
