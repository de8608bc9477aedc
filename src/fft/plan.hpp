// FFT plan tree: the library's equivalent of an FFTW plan.
//
// A plan is an immutable decomposition of an n-point DFT:
//   * kCodelet      - hand-unrolled or generic O(n^2) kernel leaf,
//   * kCooleyTukey  - n = r*m: r sub-DFTs of size m (stride r), twiddle,
//                     m combine-DFTs of size r,
//   * kBluestein    - chirp-z reformulation for sizes with a large prime
//                     factor; internally a power-of-two convolution run on
//                     the in-place engine (fft/inplace_radix2.hpp).
//
// Plans are shape-only (twiddle tables included, no workspace), so they are
// immutable after construction and safely shared across threads; per-call
// scratch lives in the Fft executor object (src/fft/fft.hpp).
//
// fft::Fft builds no tree for powers of two from fft::kInplaceEngineMinSize
// up (those run on fft/inplace_radix2.hpp), and Bluestein's power-of-two
// convolution (conv_plan) runs on that engine at every size, so every
// power-of-two FFT of 512 points or more takes one code path.
//
// The online ABFT scheme (src/abft) performs the *top-level* m*k split
// itself — mirroring how the paper instruments FFTW's first decomposition
// level — and runs the sub-transforms through fft::Fft.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/complex.hpp"
#include "common/seal.hpp"
#include "fft/inplace_radix2.hpp"

namespace ftfft::fft {

/// One node of the decomposition tree. See file comment.
struct PlanNode {
  enum class Kind { kCodelet, kCooleyTukey, kBluestein };

  std::size_t n = 0;
  Kind kind = Kind::kCodelet;

  // --- kCooleyTukey ---
  std::size_t radix = 0;                 ///< r in n = r*m
  std::shared_ptr<const PlanNode> sub;   ///< plan for the m-point sub-DFTs
  /// Combine twiddles omega_n^(t1*k1) for t1 in [1,r), k1 in [0,m), laid out
  /// [(t1-1)*m + k1]. The t1 == 0 row is identically 1 and omitted.
  std::vector<cplx> twiddles;

  // --- kBluestein ---
  std::size_t conv_n = 0;                   ///< power-of-two convolution size
  std::vector<cplx> chirp;                  ///< c[t] = exp(-pi i t^2 / n)
  std::vector<cplx> chirp_fft;              ///< FFT_conv_n of padded conj chirp
  std::shared_ptr<const InplaceRadix2Plan> conv_plan;  ///< size conv_n

  /// Scratch (complex elements) needed to execute this subtree. Nonzero only
  /// when a Bluestein node exists below; see executor.hpp for the layout
  /// contract.
  std::size_t scratch_need = 0;
};

/// Appends every twiddle/chirp table in the subtree rooted at `node` to
/// `out` (recursing through sub, and sealing conv_plan through its
/// collect_state). This is the span set sealed by the fft-plan registry:
/// flipping any cached table bit changes the seal.
void collect_plan_state(const PlanNode& node, StateSpans& out);

/// Builds (or fetches from the process-wide cache) the plan for an n-point
/// DFT. Thread-safe. n must be >= 1.
std::shared_ptr<const PlanNode> make_plan(std::size_t n);

/// Human-readable plan tree, e.g. "ct(16) -> ct(16) -> codelet(8)".
std::string describe_plan(const PlanNode& node);

}  // namespace ftfft::fft
