// Serving-grade admission control of BatchEngine: priority classes with
// EDF within a class, bounded-queue backpressure (zero-timeout fail-fast,
// bounded and unbounded admission waits, QueueFullError), deadline enforcement
// (DeadlineExceededError fail-fast for queued work), load shedding of
// cancellable lower-class lanes, per-class scheduler statistics, the env
// knobs that configure all of it, and the invariant that carries the rest:
// every admitted future is fulfilled exactly once with an outcome from the
// scheduler taxonomy — under saturation, under faults, under destruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
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

// Admission that throws QueueFullError at once instead of waiting.
engine::SubmitOptions fail_fast(Priority priority = Priority::kDefault) {
  engine::SubmitOptions so;
  so.priority = priority;
  so.admission_timeout = std::chrono::nanoseconds::zero();
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

TEST(EngineSchedEnv, QueueCapAndDefaultPriorityReadAtConstruction) {
  ASSERT_EQ(setenv("FTFFT_ENGINE_QUEUE_CAP", "7", 1), 0);
  ASSERT_EQ(setenv("FTFFT_ENGINE_DEFAULT_PRIORITY", "high", 1), 0);
  {
    engine::BatchEngine eng(1);
    EXPECT_EQ(eng.queue_cap(), 7u);
    // A Priority::kDefault submission resolves to the env-named class.
    auto r = eng.submit_tasks(1, kNoop).get();
    EXPECT_EQ(r.priority, Priority::kHigh);
    // set_queue_cap overrides the env value at runtime.
    eng.set_queue_cap(0);
    EXPECT_EQ(eng.queue_cap(), 0u);
  }
  ASSERT_EQ(setenv("FTFFT_ENGINE_DEFAULT_PRIORITY", "low", 1), 0);
  {
    engine::BatchEngine eng(1);
    auto r = eng.submit_tasks(1, kNoop).get();
    EXPECT_EQ(r.priority, Priority::kLow);
    // An explicit class always wins over the env default.
    engine::SubmitOptions hi;
    hi.priority = Priority::kHigh;
    EXPECT_EQ(eng.submit_tasks(1, kNoop, hi).get().priority, Priority::kHigh);
  }
  ASSERT_EQ(unsetenv("FTFFT_ENGINE_QUEUE_CAP"), 0);
  ASSERT_EQ(unsetenv("FTFFT_ENGINE_DEFAULT_PRIORITY"), 0);
  engine::BatchEngine eng(1);
  EXPECT_EQ(eng.queue_cap(), 0u);
  EXPECT_EQ(eng.submit_tasks(1, kNoop).get().priority, Priority::kNormal);
}

TEST(EngineSchedEnv, DefaultDeadlineKnobAppliesAndNegativeOptsOut) {
  ASSERT_EQ(setenv("FTFFT_ENGINE_DEFAULT_DEADLINE_MS", "5", 1), 0);
  engine::BatchEngine eng(1);
  ASSERT_EQ(unsetenv("FTFFT_ENGINE_DEFAULT_DEADLINE_MS"), 0);

  // The blocker must opt out of the inherited default deadline: if the
  // worker takes more than 5 ms to claim it (easy under a loaded test
  // host) the gate task would expire unexecuted and wait_entered would
  // spin forever.
  engine::SubmitOptions none;
  none.deadline = std::chrono::nanoseconds{-1};
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task(), none);
  gate.wait_entered(1);

  std::atomic<int> ran{0};
  auto count = [&](std::size_t, abft::Stats&) { ran.fetch_add(1); };
  // deadline == 0 inherits the 5 ms env budget; negative opts out of any
  // deadline even when the env default is set.
  auto inherits = eng.submit_tasks(2, count);
  auto opted_out = eng.submit_tasks(2, count, none);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.release();

  auto expired = inherits.get();
  EXPECT_EQ(expired.deadline_expired_lanes, 2u);
  EXPECT_EQ(expired.failed_lanes, 2u);
  auto fine = opted_out.get();
  EXPECT_TRUE(fine.all_ok());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_TRUE(blocker.get().all_ok());
}

// ------------------------------------------------- priority ordering + EDF

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

TEST(EngineSched, EarliestDeadlineFirstWithinAClass) {
  engine::BatchEngine eng(1);
  Gate gate;
  OrderLog log;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  auto with_deadline = [](std::chrono::seconds d) {
    engine::SubmitOptions so;
    so.deadline = d;
    return so;
  };
  // Deadline-free FIFO job first, then deadlines out of order. EDF runs
  // 10s -> 30s -> 60s; the deadline-free job queues behind all of them.
  auto f_fifo = eng.submit_tasks(1, log.tagged("fifo"));
  auto f60 = eng.submit_tasks(1, log.tagged("d60_"),
                              with_deadline(std::chrono::seconds(60)));
  auto f10 = eng.submit_tasks(1, log.tagged("d10_"),
                              with_deadline(std::chrono::seconds(10)));
  auto f30 = eng.submit_tasks(1, log.tagged("d30_"),
                              with_deadline(std::chrono::seconds(30)));
  gate.release();

  for (auto* f : {&f_fifo, &f60, &f10, &f30}) EXPECT_TRUE(f->get().all_ok());
  EXPECT_TRUE(blocker.get().all_ok());
  EXPECT_LT(log.index_of("d10_0"), log.index_of("d30_0"));
  EXPECT_LT(log.index_of("d30_0"), log.index_of("d60_0"));
  EXPECT_LT(log.index_of("d60_0"), log.index_of("fifo0"));
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

// ------------------------------------------------------------ backpressure

TEST(EngineSched, BackpressureRejectsAndThrowsWhenCapReached) {
  engine::BatchEngine eng(1);
  eng.set_queue_cap(2);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());  // running; 1 pending lane
  gate.wait_entered(1);
  auto queued = eng.submit_tasks(1, kNoop);  // pending 2 == cap

  // A zero admission timeout fails immediately, a bounded timeout waits
  // it out first; both surface QueueFullError.
  EXPECT_THROW((void)eng.submit_tasks(1, kNoop, fail_fast()),
               QueueFullError);
  engine::SubmitOptions brief;
  brief.admission_timeout = std::chrono::milliseconds(5);
  EXPECT_THROW((void)eng.submit_tasks(1, kNoop, brief), QueueFullError);

  auto st = eng.scheduler_stats();
  EXPECT_EQ(st.queue_cap, 2u);
  EXPECT_EQ(st.pending_lanes, 2u);
  EXPECT_EQ(st.at(Priority::kNormal).jobs_rejected, 2u);

  gate.release();
  EXPECT_TRUE(blocker.get().all_ok());
  EXPECT_TRUE(queued.get().all_ok());
  // Capacity freed: the same fail-fast submission is admitted now.
  EXPECT_TRUE(eng.submit_tasks(1, kNoop, fail_fast()).get().all_ok());
}

TEST(EngineSched, BlockedSubmitterAdmitsWhenSpaceFrees) {
  engine::BatchEngine eng(1);
  eng.set_queue_cap(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());  // occupies the cap
  gate.wait_entered(1);

  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    // Default admission_timeout (negative) waits as long as it takes.
    auto f = eng.submit_tasks(1, kNoop);
    admitted.store(true);
    EXPECT_TRUE(f.get().all_ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());  // still parked on admission
  gate.release();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(blocker.get().all_ok());
}

TEST(EngineSched, TrySubmitBatchRejectsThenAdmitsTransformLanes) {
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
  bopts.submit = fail_fast();

  // Every job kind is refused the same way: QueueFullError at once, one
  // more rejected job, and no pending lanes charged.
  const auto expect_refused = [&](const auto& submit) {
    const auto before = eng.scheduler_stats();
    EXPECT_THROW((void)submit(), QueueFullError);
    const auto after = eng.scheduler_stats();
    EXPECT_EQ(after.at(Priority::kNormal).jobs_rejected,
              before.at(Priority::kNormal).jobs_rejected + 1);
    EXPECT_EQ(after.pending_lanes, before.pending_lanes);
  };
  expect_refused([&] { return eng.submit_batch(lanes, n, bopts); });
  expect_refused([&] {
    return eng.submit_real_batch(real_lanes, n,
                                 engine::RealDirection::kForward, bopts);
  });
  expect_refused([&] { return eng.submit_tasks(2, kNoop, bopts.submit); });
  EXPECT_EQ(eng.scheduler_stats().at(Priority::kNormal).jobs_rejected, 3u);

  gate.release();
  EXPECT_TRUE(blocker.get().all_ok());
  eng.set_queue_cap(8);
  // Under the cap, complex and real jobs are both admitted at once.
  auto f = eng.submit_batch(lanes, n, bopts);
  auto fr = eng.submit_real_batch(real_lanes, n,
                                  engine::RealDirection::kForward, bopts);
  EXPECT_TRUE(f.get().all_ok());
  EXPECT_TRUE(fr.get().all_ok());
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

// ---------------------------------------------------------------- deadlines

TEST(EngineSched, ExpiredQueuedJobFailsFastWithDeadlineTaxonomy) {
  engine::BatchEngine eng(1);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  std::atomic<int> ran{0};
  engine::SubmitOptions dl;
  dl.deadline = std::chrono::milliseconds(5);
  auto fd = eng.submit_tasks(3, [&](std::size_t, abft::Stats&) {
    ran.fetch_add(1);
  }, dl);
  // A real-lane job with the same deadline: c2r lanes whose time-domain
  // outputs must stay unwritten.
  const std::size_t n = 256;
  std::vector<cplx> spec(2 * (n / 2 + 1), cplx{1.0, 0.0});
  std::vector<double> re(2 * n, -3.0);
  const std::vector<engine::RealLane> real_lanes{
      {re.data(), spec.data(), nullptr},
      {re.data() + n, spec.data() + (n / 2 + 1), nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  bopts.submit = dl;
  auto fr = eng.submit_real_batch(real_lanes, n,
                                  engine::RealDirection::kInverse, bopts);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.release();

  auto r = fd.get();
  EXPECT_EQ(r.lanes, 3u);
  EXPECT_EQ(r.deadline_expired_lanes, 3u);
  EXPECT_EQ(r.failed_lanes, 3u);
  EXPECT_EQ(r.shed_lanes, 0u);
  EXPECT_EQ(r.cancelled_lanes, 0u);
  EXPECT_EQ(ran.load(), 0);  // expired work never silently runs late
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(r.exceptions[i]) << i;
    EXPECT_THROW(std::rethrow_exception(r.exceptions[i]),
                 DeadlineExceededError);
    EXPECT_NE(r.errors[i].find("deadline exceeded"), std::string::npos);
  }
  const auto rr = fr.get();
  EXPECT_EQ(rr.lanes, 2u);
  EXPECT_EQ(rr.deadline_expired_lanes, 2u);
  EXPECT_EQ(rr.failed_lanes, 2u);
  EXPECT_EQ(rr.cancelled_lanes, 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(rr.exceptions[i]) << i;
    EXPECT_THROW(std::rethrow_exception(rr.exceptions[i]),
                 DeadlineExceededError);
    EXPECT_EQ(rr.errors[i], "lane deadline exceeded before execution");
  }
  EXPECT_EQ(re, std::vector<double>(2 * n, -3.0));
  EXPECT_TRUE(blocker.get().all_ok());
  const auto st = eng.scheduler_stats();
  EXPECT_EQ(st.at(Priority::kNormal).deadline_expired_lanes, 5u);
}

TEST(EngineSched, GenerousDeadlineIsMetAndReportsLatencies) {
  engine::BatchEngine eng(2);
  engine::SubmitOptions dl;
  dl.deadline = std::chrono::minutes(5);
  const std::size_t n = 256;
  auto in = random_vector(n, InputDistribution::kUniform, 9200);
  std::vector<cplx> out(n);
  std::vector<engine::Lane> lanes{{in.data(), out.data(), nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  bopts.submit = dl;
  auto r = eng.submit_batch(lanes, n, bopts).get();
  EXPECT_TRUE(r.all_ok());
  EXPECT_EQ(r.deadline_expired_lanes, 0u);
  EXPECT_GE(r.queue_wait_seconds, 0.0);
  EXPECT_GT(r.run_seconds, 0.0);
}

// ------------------------------------------------------------ load shedding

TEST(EngineSched, AdmissionShedsCancellableLowerClassLanes) {
  engine::BatchEngine eng(1);
  eng.set_queue_cap(3);
  Gate gate;
  engine::SubmitOptions hi_run;
  hi_run.priority = Priority::kHigh;
  auto blocker = eng.submit_tasks(1, gate.task(), hi_run);  // running; 1 lane
  gate.wait_entered(1);

  std::atomic<int> victim_ran{0};
  engine::SubmitOptions low_shed;
  low_shed.priority = Priority::kLow;
  low_shed.cancellable = true;
  auto victim = eng.submit_tasks(2, [&](std::size_t, abft::Stats&) {
    victim_ran.fetch_add(1);
  }, low_shed);  // queued; pending 3 == cap

  // An equal-or-lower-class arrival may not shed the victim: rejected.
  EXPECT_THROW((void)eng.submit_tasks(1, kNoop, fail_fast(Priority::kLow)),
               QueueFullError);

  // A high-class arrival sheds the queued cancellable low job to make
  // room, synchronously, and is admitted without waiting.
  std::atomic<int> winner_ran{0};
  auto winner = eng.submit_tasks(2, [&](std::size_t, abft::Stats&) {
    winner_ran.fetch_add(1);
  }, fail_fast(Priority::kHigh));
  ASSERT_TRUE(winner.valid());

  // The shed future is fulfilled immediately with the shed taxonomy.
  EXPECT_TRUE(victim.wait_for(std::chrono::minutes(1)));
  auto vr = victim.get();
  EXPECT_EQ(vr.shed_lanes, 2u);
  EXPECT_EQ(vr.failed_lanes, 2u);
  EXPECT_EQ(vr.deadline_expired_lanes, 0u);
  EXPECT_EQ(victim_ran.load(), 0);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(vr.exceptions[i]) << i;
    EXPECT_THROW(std::rethrow_exception(vr.exceptions[i]), CancelledError);
    EXPECT_NE(vr.errors[i].find("shed under overload"), std::string::npos);
  }

  gate.release();
  EXPECT_TRUE(winner.get().all_ok());
  EXPECT_EQ(winner_ran.load(), 2);
  EXPECT_TRUE(blocker.get().all_ok());

  const auto st = eng.scheduler_stats();
  EXPECT_EQ(st.at(Priority::kLow).shed_lanes, 2u);
  EXPECT_EQ(st.at(Priority::kLow).jobs_rejected, 1u);
}

TEST(EngineSched, NonCancellableLanesAreNeverShed) {
  engine::BatchEngine eng(1);
  eng.set_queue_cap(2);
  Gate gate;
  auto blocker = eng.submit_tasks(1, gate.task());
  gate.wait_entered(1);

  engine::SubmitOptions low_pinned;
  low_pinned.priority = Priority::kLow;  // lower class but NOT cancellable
  auto pinned = eng.submit_tasks(1, kNoop, low_pinned);

  EXPECT_THROW((void)eng.submit_tasks(1, kNoop, fail_fast(Priority::kHigh)),
               QueueFullError);

  gate.release();
  EXPECT_TRUE(blocker.get().all_ok());
  auto pr = pinned.get();
  EXPECT_TRUE(pr.all_ok());
  EXPECT_EQ(pr.shed_lanes, 0u);
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

TEST(EngineSched, SharedEngineSnapshotExportedViaFreeFunction) {
  const std::size_t n = 128;
  auto in = random_vector(n, InputDistribution::kUniform, 9300);
  std::vector<cplx> out(n);
  std::vector<engine::Lane> lanes{{in.data(), out.data(), nullptr}};
  const auto before = engine::scheduler_stats();
  const engine::BatchOptions bopts{make_abft_options(PlanConfig{})};
  EXPECT_TRUE(engine::BatchEngine::shared()
                  .submit_batch(lanes, n, bopts)
                  .get()
                  .all_ok());
  const auto after = engine::scheduler_stats();
  std::size_t before_jobs = 0, after_jobs = 0;
  for (const auto& c : before.classes) before_jobs += c.jobs_completed;
  for (const auto& c : after.classes) after_jobs += c.jobs_completed;
  EXPECT_GT(after_jobs, before_jobs);
}

// ----------------------------------------------------------- drain semantics

TEST(EngineSched, DestructionFulfillsQueuedAndExpiredFutures) {
  std::vector<engine::BatchFuture> futs;
  std::atomic<int> ran{0};
  {
    engine::BatchEngine eng(2);
    Gate gate;
    auto blocker = eng.submit_tasks(2, gate.task());  // occupy both workers
    gate.wait_entered(2);

    engine::SubmitOptions dl;
    dl.deadline = std::chrono::milliseconds(2);
    futs.push_back(eng.submit_tasks(3, kNoop, dl));
    futs.push_back(eng.submit_tasks(3, [&](std::size_t, abft::Stats&) {
      ran.fetch_add(1);
    }));
    futs.push_back(std::move(blocker));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();
    // Destructor drains: every admitted job completes or fails fast.
  }
  for (auto& f : futs) ASSERT_TRUE(f.ready());
  auto expired = futs[0].get();
  EXPECT_EQ(expired.deadline_expired_lanes, 3u);
  auto ok = futs[1].get();
  EXPECT_TRUE(ok.all_ok());
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

    // Saturated engine: both workers parked, cap full of sheddable low
    // traffic; the high-priority faulted batch sheds its way in.
    Campaign loaded = make_campaign();
    engine::BatchReport report;
    engine::BatchReport filler_report;
    {
      engine::BatchEngine eng(2);
      eng.set_queue_cap(8);
      Gate gate;
      auto blocker = eng.submit_tasks(2, gate.task());
      gate.wait_entered(2);
      engine::SubmitOptions low_shed;
      low_shed.priority = Priority::kLow;
      low_shed.cancellable = true;
      auto filler = eng.submit_tasks(6, kNoop, low_shed);  // fills the cap
      // Admission (including the synchronous shed of the filler) happens
      // on this thread before the future returns; the workers stay parked
      // until the gate opens below.
      auto fut = submit_campaign(eng, loaded);
      gate.release();
      report = fut.get();
      filler_report = filler.get();
      (void)blocker.get();
    }

    // Shedding made room: the filler was shed, the faulted batch ran and
    // behaved exactly as when unloaded — same faults fired, same
    // corrections, bit-identical spectra on every accepted lane.
    EXPECT_EQ(filler_report.shed_lanes, 6u);
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

  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> lanes_executed{0};
  std::mutex futs_mu;
  std::vector<engine::BatchFuture> futs;

  auto work = [&](std::size_t, abft::Stats&) {
    lanes_executed.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        engine::SubmitOptions so;
        so.priority = static_cast<Priority>((t + j) % 3);
        so.cancellable = (j % 2) == 0;
        if (j % 3 == 0) {
          // Tiny deadlines: some of these will expire while queued.
          so.deadline = std::chrono::microseconds(200 * (j % 5 + 1));
        }
        const std::size_t count = 1 + static_cast<std::size_t>(j % 3);
        // Half the submitters fail fast, half wait for space.
        so.admission_timeout = (j % 4 <= 1) ? std::chrono::nanoseconds::zero()
                                            : std::chrono::nanoseconds{-1};
        engine::BatchFuture f;
        try {
          f = eng.submit_tasks(count, work, so);
        } catch (const QueueFullError&) {
          rejected.fetch_add(1);
          continue;
        }
        std::scoped_lock lk(futs_mu);
        futs.push_back(std::move(f));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every admitted future is fulfilled, and only with outcomes from the
  // scheduler taxonomy; every non-failed lane executed exactly once.
  std::size_t ok_lanes = 0;
  std::size_t shed = 0, expired_lanes = 0;
  for (auto& f : futs) {
    ASSERT_TRUE(f.wait_for(std::chrono::minutes(2)));
    auto r = f.get();
    shed += r.shed_lanes;
    expired_lanes += r.deadline_expired_lanes;
    std::size_t failed_here = 0;
    for (std::size_t l = 0; l < r.lanes; ++l) {
      if (!r.exceptions[l]) {
        ++ok_lanes;
        continue;
      }
      ++failed_here;
      try {
        std::rethrow_exception(r.exceptions[l]);
      } catch (const DeadlineExceededError&) {
      } catch (const CancelledError&) {
      } catch (...) {
        ADD_FAILURE() << "unexpected outcome: " << r.errors[l];
      }
    }
    EXPECT_EQ(failed_here, r.failed_lanes);
  }
  EXPECT_EQ(ok_lanes, lanes_executed.load());
  EXPECT_EQ(eng.pending_jobs(), 0u);

  const auto st = eng.scheduler_stats();
  std::size_t completed = 0, stat_rejected = 0;
  for (const auto& c : st.classes) {
    completed += c.jobs_completed;
    stat_rejected += c.jobs_rejected;
  }
  EXPECT_EQ(completed, futs.size());
  EXPECT_EQ(stat_rejected, rejected.load());
  EXPECT_EQ(st.pending_lanes, 0u);
}

}  // namespace
}  // namespace ftfft
