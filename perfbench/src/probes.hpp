// Per-layer probes for the traced run: each times calls into one module's
// public functions from outside, at the sizes the workload's ops use.
#pragma once

#include <cstddef>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"

namespace perfbench {

struct ProbeResults {
  double fft_exec_ms = 0;       ///< fft::Fft::execute at n
  double fft_exec_sub_us = 0;   ///< same at the online sub-sizes m and k
  double fft_real_ms = 0;       ///< fft::RealFftPlan::r2c at n
  double weighted_sum_energy_gbps = 0;
  double dual_sum_gbps = 0;
  double omega3_gbps = 0;
  double copy_dual_sum_gbps = 0;
  double repair_us = 0;         ///< repair_errors on a planted 2-error block
  double dmr_twiddle_ms = 0;    ///< dmr_twiddle_multiply over the m x k grid
  bool repair_ok = true;        ///< every planted pair was corrected
};

/// x holds n complex samples, xr n reals; n = m * k.
[[nodiscard]] ProbeResults run_probes(std::size_t n, std::size_t m,
                                      std::size_t k,
                                      const std::vector<cplx>& x,
                                      const std::vector<double>& xr,
                                      Tracer& tr);

}  // namespace perfbench
