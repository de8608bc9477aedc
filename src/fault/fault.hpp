// Fault taxonomy for soft-error injection.
//
// The paper's evaluation (section 9.2.2) simulates a computational fault by
// adding a constant to one element produced by the computation and a memory
// fault by overwriting/bit-flipping one stored element. Faults here are
// addressed by (phase, unit): the phase names a well-defined hook point in
// an ABFT orchestrator (e.g. "output of m-point sub-FFT"), the unit
// disambiguates which sub-FFT / transposed message / DMR copy.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/complex.hpp"

namespace ftfft::fault {

/// Hook points the orchestrators expose. An injector entry fires when its
/// phase and unit match a hook invocation.
enum class Phase : std::uint8_t {
  kInputBeforeChecksum,   ///< input memory, before any checksum exists
  kInputAfterChecksum,    ///< input memory, after checksum generation (e1)
  kMFftOutput,            ///< output of one m-point sub-FFT (computational)
  kIntermediate,          ///< intermediate result between the two layers (e2)
  kTwiddleDmrCopy,        ///< one redundant execution of the twiddle multiply
  kMiddleDmrCopy,         ///< one redundant execution of an r-point middle FFT
  kKFftOutput,            ///< output of one k-point sub-FFT (computational)
  kFinalOutput,           ///< final output memory (e3)
  kWholeFftOutput,        ///< output of a monolithic FFT (offline scheme)
  kCommBlock,             ///< a block in flight during a parallel transpose:
                          ///< on the receiving rank, unit = s * p + q for
                          ///< transpose s (0, 1, 2) and sender q
  kRankLocalInput,        ///< a rank's local data before its protected FFT
  kRankFft1Output,        ///< output of one p-point FFT in parallel FFT1
  kRankFft2Output,        ///< output inside parallel FFT2
  kRealPostPass,          ///< packed transform entering the real-transform
                          ///< split/unsplit post-pass (r2c finalize input /
                          ///< c2r prepare output)
  kPlanState,             ///< cached plan metadata (twiddles, permutation
                          ///< tables, checksum weights): unit = span index
                          ///< in the plan's collect_state list, element =
                          ///< cplx-sized offset within that span
};

/// What the fault does to the victim element.
enum class Kind : std::uint8_t {
  kAddConstant,  ///< element += value   (computational error model)
  kSetValue,     ///< element  = value   (memory error model)
  kFlipBit,      ///< flip one bit of the real or imag component
};

/// One scheduled fault. Fires at most once (transient-fault semantics: the
/// re-executed computation is clean, matching the paper's fault model).
struct FaultSpec {
  Phase phase = Phase::kInputAfterChecksum;
  std::size_t unit = 0;     ///< sub-FFT index / message / DMR copy
  std::size_t element = 0;  ///< element offset within the hooked span
  Kind kind = Kind::kAddConstant;
  cplx value{0.0, 0.0};     ///< added or assigned, per kind
  unsigned bit = 62;        ///< bit index for kFlipBit (0 = LSB of mantissa)
  bool imag_part = false;   ///< kFlipBit: flip in the imaginary component

  /// Computational error: adds `magnitude` to one produced element.
  static FaultSpec computational(Phase phase, std::size_t unit,
                                 std::size_t element, cplx magnitude) {
    return FaultSpec{phase, unit, element, Kind::kAddConstant, magnitude, 0,
                     false};
  }

  /// Memory error: overwrites one stored element with `value`.
  static FaultSpec memory_set(Phase phase, std::size_t unit,
                              std::size_t element, cplx value) {
    return FaultSpec{phase, unit, element, Kind::kSetValue, value, 0, false};
  }

  /// Memory error: flips one bit of one component.
  static FaultSpec bit_flip(Phase phase, std::size_t unit, std::size_t element,
                            unsigned bit, bool imag_part) {
    return FaultSpec{phase,         unit, element, Kind::kFlipBit,
                     cplx{0.0, 0.0}, bit,  imag_part};
  }
};

}  // namespace ftfft::fault
