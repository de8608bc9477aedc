// Modeled network of the distributed six-step FFT.
//
// The paper's parallel experiments ran on Tianhe-2 (MPI over TH Express-2).
// This reproduction runs the p simulated ranks as task fan-outs on one
// host's BatchEngine, so wall-clock time cannot measure scaling. Instead a
// rank's time per six-step phase is its measured thread-CPU seconds
// (CLOCK_THREAD_CPUTIME_ID, unaffected by time slicing) plus the modeled
// alpha-beta cost of the messages it exchanges there (or the larger of the
// two, under Algorithm 3's overlap); the simulated makespan (max over
// ranks) reproduces the *shape* of the paper's Fig. 8 and Tables 2-3.
// Absolute values depend on the host CPU and on the model parameters, which
// default to TH Express-2-like numbers.
#pragma once

#include <cstddef>

namespace ftfft::parallel {

/// Alpha-beta point-to-point cost model. Faults on the link are scheduled
/// through the ranks' fault::Injector (Phase::kCommBlock), like every other
/// fault of the paper's model.
struct NetworkModel {
  double latency_s = 2e-6;     ///< per-message latency (alpha)
  double bytes_per_s = 6e9;    ///< link bandwidth (1/beta)

  /// Time to move one message of `bytes` payload.
  [[nodiscard]] double cost(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

}  // namespace ftfft::parallel
