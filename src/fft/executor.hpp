// Strided recursive executor for FFT plan trees.
//
// Scratch contract: `scratch` must point at `plan.scratch_need` writable
// complex elements (nullptr allowed when scratch_need == 0). Only Bluestein
// nodes consume scratch — conv_n elements from offset 0, convolved in place
// on the in-place engine, which needs none of its own — and a plan tree can
// never nest one Bluestein inside another, so a single region sized by the
// tree maximum is sufficient and offsets never collide.
#pragma once

#include <cstddef>

#include "common/complex.hpp"
#include "fft/plan.hpp"

namespace ftfft::fft {

/// Executes a forward DFT along the plan. `in` (stride `is`) and `out`
/// (stride `os`) must not overlap. Not normalized.
void execute_plan(const PlanNode& plan, const cplx* in, std::size_t is,
                  cplx* out, std::size_t os, cplx* scratch);

}  // namespace ftfft::fft
