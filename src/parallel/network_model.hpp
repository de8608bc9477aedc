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
#include <cstdint>
#include <cstring>

#include "common/complex.hpp"

namespace ftfft::parallel {

/// Alpha-beta point-to-point cost model, plus the modeled link/rank fault
/// knobs the fault campaigns drive (all off by default — a default model is
/// a clean network).
struct NetworkModel {
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

  double latency_s = 2e-6;     ///< per-message latency (alpha)
  double bytes_per_s = 6e9;    ///< link bandwidth (1/beta)

  // ---- fault-campaign knobs: link corruption and rank stall/failure, the
  // cluster-level fault classes of the paper's HPC setting (section 5), as
  // opposed to the bit-flip injectors that model in-node soft errors.

  /// Every corrupt_every-th block a rank receives arrives corrupted: the
  /// link flips one mantissa bit of the block's first element between the
  /// sender's checksum generation and the receiver's verification. Counted
  /// per receiving rank over the whole run, so campaigns are deterministic
  /// regardless of host thread scheduling. 0 = never.
  std::size_t corrupt_every = 0;

  /// Rank whose every outgoing message costs an extra stall_seconds of
  /// modeled time (a straggler node / congested NIC). kNoRank = none.
  std::size_t stall_rank = kNoRank;
  double stall_seconds = 0.0;

  /// Rank that fails outright (throws RankFailedError) when it reaches the
  /// numbered six-step communication phase (1..3 = the three transposes).
  /// The failure is a one-shot node loss: the transform restarts from its
  /// input while ParallelOptions::max_rank_restarts allows, and
  /// RankFailedError propagates once the budget is spent. kNoRank = none.
  std::size_t fail_rank = kNoRank;
  int fail_phase = 1;

  /// Time to move one message of `bytes` payload.
  [[nodiscard]] double cost(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

/// The modeled link corruption: flips mantissa bit 44 of the first
/// element's real part (~2^-8 relative error — far above every detection
/// threshold, well within single-error repair).
inline void corrupt_in_flight(cplx* block) {
  double re = block[0].real();
  std::uint64_t bits;
  std::memcpy(&bits, &re, sizeof(bits));
  bits ^= std::uint64_t{1} << 44;
  std::memcpy(&re, &bits, sizeof(bits));
  block[0] = cplx{re, block[0].imag()};
}

}  // namespace ftfft::parallel
