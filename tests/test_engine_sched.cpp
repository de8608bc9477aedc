// BatchEngine scheduling: three priority classes, each a FIFO queue, with
// workers re-checking for a higher class at chunk boundaries; the
// pending-lane cap, which blocks a submitter until lanes retire and which
// the engine's own worker threads bypass; rejection of an out-of-range
// class; per-class scheduler statistics; and the invariant that carries
// the rest: every admitted future is fulfilled exactly once, the only
// lane failures being CancelledError — under saturation, under faults,
// under destruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using engine::Priority;
using simd::Backend;

constexpr auto kNoop = [](std::size_t, abft::Stats&) {};

engine::SubmitOptions in_class(Priority priority) {
  engine::SubmitOptions so;
  so.priority = priority;
  return so;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (simd::backend_available(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (simd::backend_available(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

struct BackendGuard {
  Backend prev = simd::active_backend();
  ~BackendGuard() { simd::set_backend(prev); }
};

// A worker-occupying job that parks the pool until released. `entered`
// confirms a worker is inside the task, so later submissions are
// guaranteed to queue behind it instead of racing it to the workers.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  std::function<void(std::size_t, abft::Stats&)> task() {
    return [this](std::size_t, abft::Stats&) {
      entered.fetch_add(1);
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return open; });
    };
  }
  void wait_entered(int k) {
    while (entered.load() < k) std::this_thread::yield();
  }
  void release() {
    {
      std::scoped_lock lk(mu);
      open = true;
    }
    cv.notify_all();
  }
};

// Thread-safe execution-order recorder shared by a test's task jobs.
struct OrderLog {
  std::mutex mu;
  std::vector<std::string> order;

  std::function<void(std::size_t, abft::Stats&)> tagged(std::string tag) {
    return [this, tag = std::move(tag)](std::size_t i, abft::Stats&) {
      std::scoped_lock lk(mu);
      order.push_back(tag + std::to_string(i));
    };
  }
  std::ptrdiff_t index_of(const std::string& tag) {
    std::scoped_lock lk(mu);
    auto it = std::find(order.begin(), order.end(), tag);
    return it == order.end() ? -1 : it - order.begin();
  }
};

bool lane_bit_identical(const std::vector<cplx>& a,
                        const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// ----------------------------------------------------------- env knobs

TEST(EngineSchedEnv, QueueCapReadAtConstruction) {
  ASSERT_EQ(setenv("FTFFT_ENGINE_QUEUE_CAP", "7", 1), 0);
  {
    engine::BatchEngine eng(1);
    EXPECT_EQ(eng.queue_cap(), 7u);
    EXPECT_EQ(eng.scheduler_stats().queue_cap, 7u);
    // set_queue_cap overrides the env value at runtime.
    eng.set_queue_cap(0);
    EXPECT_EQ(eng.queue_cap(), 0u);
  }
  ASSERT_EQ(unsetenv("FTFFT_ENGINE_QUEUE_CAP"), 0);
  engine::BatchEngine eng(1);
  EXPECT_EQ(eng.queue_cap(), 0u);
  // A default SubmitOptions runs in the normal class.
  EXPECT_TRUE(eng.submit_tasks(1, kNoop).get().all_ok());
  EXPECT_EQ(eng.scheduler_stats().at(Priority::kNormal).jobs_completed, 1u);
}

// --------------------------------------------------------- priority ordering

TEST(EngineSched, HighPriorityOvertakesQueuedLowPriority) {
  engine::BatchEngine eng(1);
  Gate gate;
  OrderLog log;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  engine::SubmitOptions lo;
  lo.priority = Priority::kLow;
  engine::SubmitOptions hi;
  hi.priority = Priority::kHigh;
  // Low submitted first; the later high-class job must still run first.
  auto fl = eng.submit_tasks(2, log.tagged("low"), lo);
  auto fh = eng.submit_tasks(2, log.tagged("high"), hi);
  gate.release();

  EXPECT_TRUE(fl.get().all_ok());
  EXPECT_TRUE(fh.get().all_ok());
  EXPECT_TRUE(blocker.get().all_ok());
  EXPECT_LT(log.index_of("high1"), log.index_of("low0"));
}

TEST(EngineSched, FifoWithinAClass) {
  engine::BatchEngine eng(1);
  Gate gate;
  OrderLog log;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  // Queued behind the blocker in submission order; a low job submitted
  // in between does not disturb the normal class's order.
  auto fa = eng.submit_tasks(1, log.tagged("a"));
  auto fl = eng.submit_tasks(1, log.tagged("low"), in_class(Priority::kLow));
  auto fb = eng.submit_tasks(1, log.tagged("b"));
  auto fc = eng.submit_tasks(1, log.tagged("c"));
  gate.release();

  for (auto* f : {&fa, &fl, &fb, &fc}) EXPECT_TRUE(f->get().all_ok());
  EXPECT_TRUE(blocker.get().all_ok());
  EXPECT_LT(log.index_of("a0"), log.index_of("b0"));
  EXPECT_LT(log.index_of("b0"), log.index_of("c0"));
  EXPECT_LT(log.index_of("c0"), log.index_of("low0"));
}

TEST(EngineSched, HighArrivalOvertakesHalfDrainedLowJobAtChunkBoundary) {
  engine::BatchEngine eng(1);
  std::atomic<bool> high_submitted{false};
  OrderLog log;

  engine::SubmitOptions lo;
  lo.priority = Priority::kLow;
  // Item 0 holds the worker until the high job is queued, so the re-pick
  // at the next chunk boundary deterministically sees it.
  auto low_task = [&](std::size_t i, abft::Stats& s) {
    if (i == 0) {
      while (!high_submitted.load()) std::this_thread::yield();
    }
    log.tagged("low")(i, s);
  };
  auto fl = eng.submit_tasks(4, low_task, lo, /*chunk=*/1);
  engine::SubmitOptions hi;
  hi.priority = Priority::kHigh;
  auto fh = eng.submit_tasks(1, log.tagged("high"), hi, /*chunk=*/1);
  high_submitted.store(true);

  EXPECT_TRUE(fl.get().all_ok());
  EXPECT_TRUE(fh.get().all_ok());
  // The high lane runs before the low job's remaining items drain.
  EXPECT_LT(log.index_of("high0"), log.index_of("low1"));
}

TEST(EngineSched, HighClassQueueWaitBeatsLowInSchedulerStats) {
  engine::BatchEngine eng(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  auto slow = [](std::size_t, abft::Stats&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  engine::SubmitOptions lo;
  lo.priority = Priority::kLow;
  engine::SubmitOptions hi;
  hi.priority = Priority::kHigh;
  std::vector<engine::BatchFuture> futs;
  // Lows queued first, yet every high runs before any low — so every
  // low-class queue wait strictly exceeds every high-class one.
  for (int i = 0; i < 8; ++i) futs.push_back(eng.submit_tasks(1, slow, lo));
  for (int i = 0; i < 8; ++i) futs.push_back(eng.submit_tasks(1, slow, hi));
  gate.release();
  for (auto& f : futs) EXPECT_TRUE(f.get().all_ok());
  EXPECT_TRUE(blocker.get().all_ok());

  const auto st = eng.scheduler_stats();
  const auto& h = st.at(Priority::kHigh);
  const auto& l = st.at(Priority::kLow);
  EXPECT_EQ(h.jobs_completed, 8u);
  EXPECT_EQ(l.jobs_completed, 8u);
  EXPECT_EQ(h.queue_wait.count, 8u);
  EXPECT_EQ(l.queue_wait.count, 8u);
  EXPECT_LT(h.queue_wait.p50, l.queue_wait.p50);
  EXPECT_LT(h.queue_wait.p99, l.queue_wait.p99);
  EXPECT_GT(l.queue_wait.max, 0.0);
}

// ------------------------------------------------------- class validation

TEST(EngineSched, OutOfRangePriorityIsRejectedBeforeQueueing) {
  engine::BatchEngine eng(1);
  EXPECT_THROW((void)eng.submit_tasks(1, kNoop, {static_cast<Priority>(7)}),
               std::invalid_argument);
  EXPECT_EQ(eng.pending_jobs(), 0u);

  const std::size_t n = 64;
  auto in = random_vector(n, InputDistribution::kUniform, 9000);
  std::vector<cplx> out(n);
  const std::vector<engine::Lane> lanes{{in.data(), out.data(), nullptr}};
  engine::BatchOptions bopts;
  bopts.submit.priority = static_cast<Priority>(-1);
  EXPECT_THROW((void)eng.submit_batch(lanes, n, bopts),
               std::invalid_argument);
  EXPECT_EQ(eng.pending_jobs(), 0u);

  const auto st = eng.scheduler_stats();
  EXPECT_EQ(st.pending_lanes, 0u);
  for (const auto& c : st.classes) EXPECT_EQ(c.jobs_submitted, 0u);
}

// ------------------------------------------------------------ backpressure

TEST(EngineSched, BlockedSubmitterAdmitsWhenSpaceFrees) {
  engine::BatchEngine eng(1);
  eng.set_queue_cap(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());  // occupies the cap
  gate.wait_entered(1);

  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    auto f = eng.submit_tasks(1, kNoop);  // waits as long as it takes
    admitted.store(true);
    EXPECT_TRUE(f.get().all_ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());  // still parked on admission
  const auto st = eng.scheduler_stats();
  EXPECT_EQ(st.queue_cap, 1u);
  EXPECT_EQ(st.pending_lanes, 1u);  // the parked job is not charged
  gate.release();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(blocker.get().all_ok());
}

TEST(EngineSched, EveryJobKindBlocksAtTheCap) {
  const std::size_t n = 256;
  engine::BatchEngine eng(1);
  eng.set_queue_cap(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  auto in = random_vector(4 * n, InputDistribution::kUniform, 9100);
  std::vector<cplx> out(4 * n);
  std::vector<engine::Lane> lanes(4);
  for (std::size_t l = 0; l < 4; ++l) {
    lanes[l] = {in.data() + l * n, out.data() + l * n, nullptr};
  }
  std::vector<double> re(2 * n, 0.5);
  std::vector<cplx> spec(2 * (n / 2 + 1));
  const std::vector<engine::RealLane> real_lanes{
      {re.data(), spec.data(), nullptr},
      {re.data() + n, spec.data() + (n / 2 + 1), nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);

  // Each kind goes through the one admission path: its submitter parks
  // while the blocker holds the cap, and nothing is charged meanwhile.
  std::atomic<int> admitted{0};
  std::vector<std::thread> submitters;
  const auto submit_on_thread = [&](auto submit) {
    submitters.emplace_back([&, submit] {
      auto f = submit();
      admitted.fetch_add(1);
      EXPECT_TRUE(f.get().all_ok());
    });
  };
  submit_on_thread([&] { return eng.submit_batch(lanes, n, bopts); });
  submit_on_thread([&] {
    return eng.submit_real_batch(real_lanes, n,
                                 engine::RealDirection::kForward, bopts);
  });
  submit_on_thread([&] { return eng.submit_tasks(2, kNoop); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(admitted.load(), 0);
  EXPECT_EQ(eng.scheduler_stats().pending_lanes, 1u);

  gate.release();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(admitted.load(), 3);
  EXPECT_TRUE(blocker.get().all_ok());
  EXPECT_EQ(eng.scheduler_stats().pending_lanes, 0u);
}

TEST(EngineSched, OversizedJobIsAdmittedWhenQueueIsEmpty) {
  // A job larger than the cap must not block forever: it is admitted
  // alone once the queue is empty (otherwise no cap could ever fit it).
  engine::BatchEngine eng(2);
  eng.set_queue_cap(2);
  std::atomic<int> ran{0};
  auto f = eng.submit_tasks(6, [&](std::size_t, abft::Stats&) {
    ran.fetch_add(1);
  });
  EXPECT_TRUE(f.get().all_ok());
  EXPECT_EQ(ran.load(), 6);
}

// ---------------------------------------------------------------- latencies

TEST(EngineSched, TransformBatchReportsLatencies) {
  engine::BatchEngine eng(2);
  const std::size_t n = 256;
  auto in = random_vector(n, InputDistribution::kUniform, 9200);
  std::vector<cplx> out(n);
  std::vector<engine::Lane> lanes{{in.data(), out.data(), nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  auto r = eng.submit_batch(lanes, n, bopts).get();
  EXPECT_TRUE(r.all_ok());
  EXPECT_GE(r.queue_wait_seconds, 0.0);
  EXPECT_GT(r.run_seconds, 0.0);
}

// -------------------------------------------------------------------- stats

TEST(EngineSched, SchedulerStatsCountersAndReset) {
  engine::BatchEngine eng(2);
  engine::SubmitOptions lo;
  lo.priority = Priority::kLow;
  EXPECT_TRUE(eng.submit_tasks(3, kNoop, lo).get().all_ok());
  EXPECT_TRUE(eng.submit_tasks(2, kNoop).get().all_ok());

  auto st = eng.scheduler_stats();
  EXPECT_EQ(st.at(Priority::kLow).jobs_submitted, 1u);
  EXPECT_EQ(st.at(Priority::kLow).jobs_completed, 1u);
  EXPECT_EQ(st.at(Priority::kLow).lanes_submitted, 3u);
  EXPECT_EQ(st.at(Priority::kLow).lanes_completed, 3u);
  EXPECT_EQ(st.at(Priority::kNormal).lanes_completed, 2u);
  EXPECT_EQ(st.at(Priority::kHigh).jobs_submitted, 0u);
  EXPECT_EQ(st.pending_lanes, 0u);

  eng.reset_scheduler_stats();
  st = eng.scheduler_stats();
  for (const auto& c : st.classes) {
    EXPECT_EQ(c.jobs_submitted, 0u);
    EXPECT_EQ(c.lanes_completed, 0u);
    EXPECT_EQ(c.queue_wait.count, 0u);
    EXPECT_EQ(c.run.count, 0u);
  }
}

TEST(EngineSched, PoolThreadsBypassTheCapInAShardedPhaseChain) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 9300);
  const parallel::ParallelOptions opts = parallel::ParallelOptions::ft_fftw();
  ASSERT_TRUE(opts.memory_ft);

  parallel::ParallelReport want_report;
  std::vector<cplx> want;
  {
    engine::BatchEngine uncapped(1);
    want = parallel::submit_parallel(p, x, opts, {}, &uncapped)
               .get(&want_report);
  }

  // The phase-0 fan-out is queued while the cap is still open, a low job
  // queued behind it keeps one lane pending for the whole chain, and then
  // the cap drops to 1. Every later phase is submitted by the one worker
  // from the previous phase's completion callback, with the queue full:
  // only the pool-thread bypass admits it, since the worker that would
  // free space is the one submitting.
  engine::BatchEngine eng(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);
  auto future = parallel::submit_parallel(p, x, opts, {}, &eng);
  auto tail = eng.submit_tasks(1, kNoop, in_class(Priority::kLow));
  eng.set_queue_cap(1);
  gate.release();

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!future.ready() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool completed = future.ready();
  eng.set_queue_cap(0);  // frees a parked worker if the bypass failed
  ASSERT_TRUE(completed) << "sharded phase chain deadlocked on the cap";

  parallel::ParallelReport report;
  const auto got = future.get(&report);
  EXPECT_TRUE(tail.get().all_ok());
  EXPECT_TRUE(blocker.get().all_ok());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0);
  const abft::Stats& s = report.stats;
  const abft::Stats& w = want_report.stats;
  EXPECT_EQ(s.comp_errors_detected, w.comp_errors_detected);
  EXPECT_EQ(s.mem_errors_detected, w.mem_errors_detected);
  EXPECT_EQ(s.mem_errors_corrected, w.mem_errors_corrected);
  EXPECT_EQ(s.multi_errors_corrected, w.multi_errors_corrected);
  EXPECT_EQ(s.sub_fft_retries, w.sub_fft_retries);
  EXPECT_EQ(s.full_restarts, w.full_restarts);
  EXPECT_EQ(s.dmr_mismatches, w.dmr_mismatches);
  EXPECT_EQ(s.verifications, w.verifications);
  EXPECT_EQ(std::memcmp(&s.eta_m, &w.eta_m, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&s.eta_k, &w.eta_k, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&s.eta_mem, &w.eta_mem, sizeof(double)), 0);
  EXPECT_EQ(report.comm_stats.comm_errors_detected,
            want_report.comm_stats.comm_errors_detected);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected,
            want_report.comm_stats.comm_errors_corrected);
  EXPECT_EQ(report.comm_stats.comm_multi_corrected,
            want_report.comm_stats.comm_multi_corrected);
  EXPECT_EQ(report.comm_stats.bytes_sent, want_report.comm_stats.bytes_sent);
  EXPECT_EQ(report.comm_stats.messages_received,
            want_report.comm_stats.messages_received);
  EXPECT_EQ(report.bytes_per_rank, want_report.bytes_per_rank);
}

// ----------------------------------------------------------- drain semantics

TEST(EngineSched, DestructionFulfillsQueuedAndCancelledFutures) {
  std::vector<engine::BatchFuture> futs;
  std::atomic<int> ran{0};
  const auto count = [&](std::size_t, abft::Stats&) { ran.fetch_add(1); };
  {
    engine::BatchEngine eng(2);
    Gate gate;
    auto blocker = eng.submit_tasks(2, gate.task());  // occupy both workers
    gate.wait_entered(2);

    futs.push_back(eng.submit_tasks(3, count));
    futs.back().ticket().cancel();
    futs.push_back(eng.submit_tasks(3, count));
    futs.push_back(std::move(blocker));
    gate.release();
    // Destructor drains: every admitted job completes or is skipped.
  }
  for (auto& f : futs) ASSERT_TRUE(f.ready());
  auto cancelled = futs[0].get();
  EXPECT_EQ(cancelled.cancelled_lanes, 3u);
  EXPECT_EQ(cancelled.failed_lanes, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(cancelled.exceptions[i]) << i;
    EXPECT_THROW(std::rethrow_exception(cancelled.exceptions[i]),
                 CancelledError);
  }
  EXPECT_TRUE(futs[1].get().all_ok());
  EXPECT_EQ(ran.load(), 3);
  EXPECT_TRUE(futs[2].get().all_ok());
}

// ------------------------------------------- overload + faults, per backend

TEST(EngineSched, AbftOutcomesUnderSaturationMatchUnloadedRun) {
  const std::size_t n = 512;
  const std::size_t lanes_n = 6;
  const std::size_t hit_lanes[] = {1, 4};
  const abft::Options opts = abft::Options::online_opt(true);

  BackendGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    const auto inputs = [&] {
      std::vector<std::vector<cplx>> ins;
      for (std::size_t l = 0; l < lanes_n; ++l) {
        ins.push_back(random_vector(n, InputDistribution::kUniform, 9400 + l));
      }
      return ins;
    }();

    // One campaign = own copies of the inputs, fresh injectors on the hit
    // lanes, owned output buffers. Buffers must outlive the future.
    struct Campaign {
      std::vector<std::vector<cplx>> ins;
      std::vector<std::vector<cplx>> outs;
      std::vector<fault::Injector> injectors;
      std::vector<engine::Lane> lanes;
    };
    auto make_campaign = [&] {
      Campaign c;
      c.ins = inputs;
      c.outs.assign(lanes_n, std::vector<cplx>(n));
      c.injectors.resize(lanes_n);
      for (std::size_t hit : hit_lanes) {
        c.injectors[hit].schedule(fault::FaultSpec::bit_flip(
            fault::Phase::kFinalOutput, 0, 3 * hit + 1, 40, hit % 2 == 0));
      }
      c.lanes.resize(lanes_n);
      for (std::size_t l = 0; l < lanes_n; ++l) {
        c.lanes[l] = {c.ins[l].data(), c.outs[l].data(), &c.injectors[l]};
      }
      return c;
    };
    auto submit_campaign = [&](engine::BatchEngine& eng, Campaign& c) {
      engine::BatchOptions bopts;
      bopts.abft = opts;
      bopts.submit.priority = Priority::kHigh;
      return eng.submit_batch(c.lanes, n, bopts);
    };
    auto fired_counts = [&](const Campaign& c) {
      std::vector<std::size_t> fired;
      for (const auto& inj : c.injectors) fired.push_back(inj.fired_count());
      return fired;
    };

    // Unloaded reference: plenty of room, nothing competing.
    Campaign ref = make_campaign();
    engine::BatchReport ref_report;
    {
      engine::BatchEngine eng(2);
      ref_report = submit_campaign(eng, ref).get();
    }
    ASSERT_TRUE(ref_report.all_ok()) << "backend " << static_cast<int>(b);

    // Saturated engine: both workers parked, the cap full of low traffic;
    // the high-priority faulted batch parks on admission until the filler
    // retires.
    Campaign loaded = make_campaign();
    engine::BatchReport report;
    engine::BatchReport filler_report;
    {
      engine::BatchEngine eng(2);
      eng.set_queue_cap(8);
      Gate gate;
      auto blocker = eng.submit_tasks(2, gate.task());
      gate.wait_entered(2);
      // Six low lanes fill the cap of eight beside the two gate lanes.
      auto filler = eng.submit_tasks(6, kNoop, in_class(Priority::kLow));
      std::atomic<bool> admitted{false};
      engine::BatchFuture fut;
      std::thread submitter([&] {
        fut = submit_campaign(eng, loaded);
        admitted.store(true);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      EXPECT_FALSE(admitted.load());
      gate.release();
      submitter.join();
      report = fut.get();
      filler_report = filler.get();
      (void)blocker.get();
    }

    // The filler ran, and the faulted batch behaved exactly as when
    // unloaded — same faults fired, same corrections, bit-identical
    // spectra on every lane.
    EXPECT_TRUE(filler_report.all_ok());
    EXPECT_EQ(filler_report.lanes, 6u);
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(fired_counts(loaded), fired_counts(ref));
    for (std::size_t l = 0; l < lanes_n; ++l) {
      EXPECT_EQ(report.per_lane[l].mem_errors_corrected,
                ref_report.per_lane[l].mem_errors_corrected)
          << "backend " << static_cast<int>(b) << " lane " << l;
      EXPECT_TRUE(lane_bit_identical(loaded.outs[l], ref.outs[l]))
          << "backend " << static_cast<int>(b) << " lane " << l;
    }
  }
}

// ------------------------------------------------------------------- stress

TEST(EngineSchedStress, SaturatedMixedWorkloadLosesNoFutures) {
  engine::BatchEngine eng(4);
  eng.set_queue_cap(8);
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 25;

  std::atomic<std::size_t> lanes_executed{0};
  std::atomic<std::size_t> lanes_submitted{0};
  std::mutex futs_mu;
  std::vector<engine::BatchFuture> futs;
  // One completion counter per future, bumped by its then-callback:
  // fulfilled exactly once means every counter ends at 1.
  std::vector<std::shared_ptr<std::atomic<int>>> completions;

  auto work = [&](std::size_t, abft::Stats&) {
    lanes_executed.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  // Registers a future and its completion counter. futs_mu is never held
  // across then(), which may run a callback that comes back here.
  auto track = [&](engine::BatchFuture f, std::size_t count) {
    lanes_submitted.fetch_add(count);
    auto done = std::make_shared<std::atomic<int>>(0);
    f.then([done](engine::BatchReport&) { done->fetch_add(1); });
    std::scoped_lock lk(futs_mu);
    completions.push_back(std::move(done));
    futs.push_back(std::move(f));
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const auto priority = static_cast<Priority>((t + j) % 3);
        const std::size_t count = 1 + static_cast<std::size_t>(j % 3);
        // Every submitter blocks at the cap until lanes retire.
        engine::BatchFuture f =
            eng.submit_tasks(count, work, in_class(priority));
        // Every fourth job is cancelled at once: its unstarted lanes are
        // skipped with CancelledError.
        if (j % 4 == 0) f.ticket().cancel();
        // Every fifth job chains a one-lane continuation from its
        // completion callback, which runs on a worker when the job is
        // still queued: the worker's submission bypasses the full queue.
        if (j % 5 == 0) {
          f.then([&, priority](engine::BatchReport&) {
            track(eng.submit_tasks(1, work, in_class(priority)), 1);
          });
        }
        track(std::move(f), count);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every admitted future is fulfilled; waiting on the submitted ones
  // also waits out their continuation callbacks, so after this loop the
  // continuations are all registered and can be waited on in turn.
  std::size_t ok_lanes = 0, failed_lanes = 0, cancelled_lanes = 0;
  for (std::size_t i = 0;; ++i) {
    engine::BatchFuture f;
    {
      std::scoped_lock lk(futs_mu);
      if (i == futs.size()) break;
      f = futs[i];
    }
    ASSERT_TRUE(f.wait_for(std::chrono::minutes(2)));
    const auto r = f.get();
    cancelled_lanes += r.cancelled_lanes;
    std::size_t failed_here = 0;
    for (std::size_t l = 0; l < r.lanes; ++l) {
      if (!r.exceptions[l]) {
        ++ok_lanes;
        continue;
      }
      ++failed_here;
      // The only lane failure this workload can produce.
      EXPECT_THROW(std::rethrow_exception(r.exceptions[l]), CancelledError)
          << r.errors[l];
    }
    EXPECT_EQ(failed_here, r.failed_lanes);
    failed_lanes += failed_here;
  }
  EXPECT_EQ(ok_lanes, lanes_executed.load());
  EXPECT_EQ(failed_lanes, cancelled_lanes);
  EXPECT_EQ(ok_lanes + failed_lanes, lanes_submitted.load());
  EXPECT_EQ(eng.pending_jobs(), 0u);
  for (const auto& c : completions) EXPECT_EQ(c->load(), 1);

  // The per-class counters sum to the futures.
  const auto st = eng.scheduler_stats();
  std::size_t submitted = 0, completed = 0, run = 0, skipped = 0;
  for (const auto& c : st.classes) {
    submitted += c.jobs_submitted;
    completed += c.jobs_completed;
    run += c.lanes_completed;
    skipped += c.lanes_cancelled;
  }
  EXPECT_EQ(submitted, futs.size());
  EXPECT_EQ(completed, futs.size());
  EXPECT_EQ(run, ok_lanes);
  EXPECT_EQ(skipped, cancelled_lanes);
  EXPECT_EQ(st.pending_lanes, 0u);
}

}  // namespace
}  // namespace ftfft
