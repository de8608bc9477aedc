// User-facing FFT engine: plan + per-instance workspace.
//
// An `Fft` object owns the scratch its plan needs, so `execute` allocates
// nothing (strided output on the in-place engine allocates its staging
// buffer once, on first use). One instance is not safe for concurrent calls
// (the scratch is shared state); create one per thread — plans themselves
// are shared through the process-wide cache, so extra instances are cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/complex.hpp"
#include "common/math_util.hpp"
#include "fft/inplace_radix2.hpp"
#include "fft/plan.hpp"

namespace ftfft::fft {

/// Transform direction. Inverse applies the 1/n normalization.
enum class Direction { kForward, kInverse };

/// Measured engine crossover (AVX2 host, medians of 31): the recursive
/// codelet tree wins at 128 (0.56 vs 0.72-0.96 us) and 256 (1.0 vs
/// 1.35-1.6 us); the in-place engine wins at 512 (3.2 vs 4.8 us), ties at
/// 2048 and wins 6.0 vs 14.7 ms at 2^18.
inline constexpr std::size_t kInplaceEngineMinSize = 512;

/// True when `Fft` of size n runs on InplaceRadix2Plan.
[[nodiscard]] constexpr bool uses_inplace_engine(std::size_t n) noexcept {
  return n >= kInplaceEngineMinSize && is_pow2(n);
}

/// Reusable n-point transform engine. Powers of two from
/// kInplaceEngineMinSize up run on the cached InplaceRadix2Plan (outputs
/// bitwise those of forward_copy() / inverse()); smaller powers of two,
/// other composites and Bluestein sizes run on the recursive executor, whose
/// Bluestein nodes convolve on InplaceRadix2Plan in a conv_n-element scratch
/// held by the instance.
class Fft {
 public:
  explicit Fft(std::size_t n, Direction dir = Direction::kForward);

  /// Out-of-place, unit stride. in and out must not overlap and must hold n
  /// elements each.
  void execute(const cplx* in, cplx* out);

  /// Out-of-place with arbitrary strides.
  void execute_strided(const cplx* in, std::size_t is, cplx* out,
                       std::size_t os);

  /// Forward transform of input held in bit-reversed order (in[i] =
  /// x[bit_reversal()[i]], unit stride, in and out disjoint), bitwise equal
  /// to execute(x, out). Only for engines whose bit_reversal() is non-null.
  void execute_bit_reversed(const cplx* in, cplx* out) const {
    inplace_->forward_bit_reversed(in, out);
  }

  /// The input permutation execute_bit_reversed() expects, or nullptr when
  /// this engine has none (inverse direction, or a size off the in-place
  /// engine): callers that stage a sub-FFT's input then write it in this
  /// order, else in natural order.
  [[nodiscard]] const std::uint32_t* bit_reversal() const noexcept {
    return inplace_ && dir_ == Direction::kForward ? inplace_->bit_reversal()
                                                   : nullptr;
  }

  /// In place. For power-of-two sizes this runs the iterative radix-2 engine
  /// with O(1) auxiliary space; other sizes stage through the instance
  /// scratch (documented deviation: true in-place mixed-radix is out of
  /// scope, and every size the paper's schemes protect in place is 2^b).
  void execute_inplace(cplx* data);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] Direction direction() const noexcept { return dir_; }

 private:
  void execute_on_inplace_plan(const cplx* in, std::size_t is, cplx* out,
                               std::size_t os);
  /// Runs the tree on dir_scratch_ (conjugated for the inverse) into out.
  void execute_staged(cplx* out, std::size_t os);

  std::size_t n_;
  Direction dir_;
  std::shared_ptr<const InplaceRadix2Plan> inplace_;  // uses_inplace_engine
  std::shared_ptr<const PlanNode> plan_;              // every other size
  std::vector<cplx> scratch_;       // Bluestein convolution buffer, or empty
  std::vector<cplx> dir_scratch_;   // conjugation / strided-output staging
};

/// One-shot convenience transforms (allocate internally).
std::vector<cplx> fft(const std::vector<cplx>& in);
std::vector<cplx> ifft(const std::vector<cplx>& in);

}  // namespace ftfft::fft
