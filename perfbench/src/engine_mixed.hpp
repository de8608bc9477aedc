// engine_mixed: a closed loop of clients on a 3-worker BatchEngine.
//
// One generator thread plays a fixed number of clients; each submits a
// seeded job (complex batches at 2^10, 2^12, 2^14 or r2c at 2^12, 4-16
// lanes, high/normal/low class), waits for its completion callback and only
// then submits the next. 3 workers + the generator = 4 threads = nproc.
// Transforms are small, so admission, claiming, staging, plan lookup and
// per-call allocation dominate. The loop is closed because an open loop's
// p99 on a shared 4-vCPU host swung with generator lateness.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ftfft.hpp"
#include "oracle.hpp"
#include "rounds.hpp"
#include "trace.hpp"

namespace perfbench {

struct EngineData {
  std::vector<double> job_ms;     ///< submit call -> completion callback
  std::vector<double> submit_us;  ///< time inside the submit call
  std::vector<double> run_ms;     ///< BatchReport::run_seconds
  std::size_t lanes_ok = 0;
  std::size_t jobs = 0;
  double wall_s = 0.0;
  ftfft::engine::SchedulerStats sched;
  std::uint64_t plan_misses = 0, plan_verifications = 0;
};

class EngineMixed {
 public:
  static constexpr std::size_t kClients = 6;
  static constexpr std::size_t kWorkers = 3;

  /// Generates the input pools (not part of set-up time).
  explicit EngineMixed(std::uint64_t seed);
  ~EngineMixed();
  EngineMixed(const EngineMixed&) = delete;
  EngineMixed& operator=(const EngineMixed&) = delete;

  double setup(Tracer& tr);
  void prepare_oracle();
  void run(double seconds, Tracer& tr, OpTally& tally, EngineData& data);
  [[nodiscard]] double warm_seconds() const noexcept { return warm_s_; }

 private:
  struct Item {
    std::vector<cplx> x, spectrum;
    std::vector<double> xr;
  };
  struct Client {
    std::vector<cplx> out;
    std::vector<cplx> canary_in;
    std::vector<ftfft::engine::Lane> lanes;
    std::vector<ftfft::engine::RealLane> real_lanes;
    ftfft::fault::Injector injector;
    ftfft::engine::BatchFuture future;
    std::size_t job = 0, kind = 0, lanes_n = 0, base = 0;
    bool canary = false;
    std::int64_t submit_ns = 0;
    // Written by the completion callback under EngineMixed::mu_.
    std::int64_t done_ns = 0;
    ftfft::engine::BatchReport report;
  };

  void submit(std::size_t id, std::size_t job, EngineData& data);
  void complete(std::size_t id, Tracer& tr, OpTally& tally, EngineData& data);

  std::uint64_t seed_;
  std::vector<std::vector<Item>> pool_;  // [kind][item]
  std::array<std::size_t, 4> slot_stride_{};  // online k per complex kind
  double warm_s_ = 0.0;
  ftfft::abft::Options opts_;
  std::array<Client, kClients> clients_;
  std::unique_ptr<ftfft::engine::BatchEngine> engine_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> ready_;  // guarded by mu_
};

}  // namespace perfbench
