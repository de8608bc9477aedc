// Simulated-time accounting for the parallel runtime.
//
// The paper's parallel experiments ran on Tianhe-2 (MPI over TH Express-2).
// This reproduction executes ranks as host threads — typically on fewer
// physical cores than ranks — so wall-clock time cannot measure scaling.
// Instead each rank carries a RankClock: compute segments advance it by the
// thread's *CPU* time (CLOCK_THREAD_CPUTIME_ID, unaffected by time slicing),
// communication advances it by an alpha-beta network model, and
// synchronization advances it to the peer's clock. The simulated makespan
// (max final clock) reproduces the *shape* of the paper's Fig. 8 and
// Tables 2-3; absolute values depend on the host CPU and the model
// parameters, which default to TH Express-2-like numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/complex.hpp"
#include "common/timer.hpp"

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
  /// The reference path propagates the failure; the sharded path treats it
  /// as a one-shot node loss and can restart the transform
  /// (ParallelOptions::max_rank_restarts). kNoRank = none.
  std::size_t fail_rank = kNoRank;
  int fail_phase = 1;

  /// Time to move one message of `bytes` payload.
  [[nodiscard]] double cost(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

/// The modeled link corruption: flips mantissa bit 44 of the first
/// element's real part (~2^-8 relative error — far above every detection
/// threshold, well within single-error repair). Shared by the reference
/// and sharded receive paths so campaign outcomes are comparable.
inline void corrupt_in_flight(cplx* block) {
  double re = block[0].real();
  std::uint64_t bits;
  std::memcpy(&bits, &re, sizeof(bits));
  bits ^= std::uint64_t{1} << 44;
  std::memcpy(&re, &bits, sizeof(bits));
  block[0] = cplx{re, block[0].imag()};
}

/// Per-rank simulated clock. Not thread-safe; each rank owns one.
class RankClock {
 public:
  /// Starts a measured compute segment.
  void begin_compute() { cpu_.reset(); }

  /// Ends the segment, adds the measured CPU seconds to the clock, and
  /// returns them (so callers can also account the same work elsewhere,
  /// e.g. when deciding overlap).
  double end_compute() {
    const double t = cpu_.elapsed();
    now_ += t;
    compute_ += t;
    return t;
  }

  /// Adds modeled communication time.
  void add_comm(double seconds) {
    now_ += seconds;
    comm_ += seconds;
  }

  /// Adds pre-measured compute time (overlap bookkeeping).
  void add_compute(double seconds) {
    now_ += seconds;
    compute_ += seconds;
  }

  /// Synchronizes with another event: the clock cannot be earlier than it.
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] double compute_seconds() const { return compute_; }
  [[nodiscard]] double comm_seconds() const { return comm_; }

 private:
  double now_ = 0.0;
  double compute_ = 0.0;
  double comm_ = 0.0;
  ThreadCpuTimer cpu_;
};

}  // namespace ftfft::parallel
