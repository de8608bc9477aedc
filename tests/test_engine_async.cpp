// Queue semantics of the async submission pipeline.
//
// BatchEngine's serving contract: submissions from any number of threads
// enter one FIFO work queue, workers pull lanes across all queued jobs,
// and every submission's BatchFuture is fulfilled exactly once — including
// when jobs are cancelled mid-queue or the engine is destroyed with work
// still in flight. Correctness bar is the same as the blocking engine:
// bit-identical spectra to a serial loop, per-lane failure isolation, and
// the library's error taxonomy preserved through the future.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abft/protection_plan.hpp"
#include "checksum/weights.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/ftfft.hpp"

namespace ftfft {
namespace {

std::vector<std::vector<cplx>> lane_inputs(std::size_t lanes, std::size_t n,
                                           std::uint64_t seed) {
  std::vector<std::vector<cplx>> ins;
  ins.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ins.push_back(random_vector(n, InputDistribution::kUniform, seed + l));
  }
  return ins;
}

std::vector<std::vector<cplx>> serial_reference(
    const std::vector<std::vector<cplx>>& inputs, std::size_t n,
    const abft::Options& opts) {
  std::vector<std::vector<cplx>> outs(inputs.size(), std::vector<cplx>(n));
  for (std::size_t l = 0; l < inputs.size(); ++l) {
    auto x = inputs[l];
    abft::Stats stats;
    abft::protected_transform(x.data(), outs[l].data(), n, opts, stats);
  }
  return outs;
}

bool bit_identical(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// A one-job workload owning its buffers, so futures can outlive scopes.
struct Workload {
  std::vector<std::vector<cplx>> ins;
  std::vector<std::vector<cplx>> outs;
  std::vector<engine::Lane> lanes;

  Workload(std::size_t count, std::size_t n, std::uint64_t seed)
      : ins(lane_inputs(count, n, seed)),
        outs(count, std::vector<cplx>(n)),
        lanes(count) {
    for (std::size_t l = 0; l < count; ++l) {
      lanes[l] = {ins[l].data(), outs[l].data(), nullptr};
    }
  }
};

// Runs first in this binary (registration order): reads the env knob at
// engine construction, before any other test spawns engine threads.
TEST(AsyncEngineEnv, EngineThreadsKnobBoundsDefaultPool) {
  ASSERT_EQ(setenv("FTFFT_ENGINE_THREADS", "3", 1), 0);
  {
    engine::BatchEngine eng(0);
    EXPECT_EQ(eng.num_threads(), 3u);
  }
  // An explicit count wins over the env knob.
  {
    engine::BatchEngine eng(2);
    EXPECT_EQ(eng.num_threads(), 2u);
  }
  ASSERT_EQ(unsetenv("FTFFT_ENGINE_THREADS"), 0);
  engine::BatchEngine eng(0);
  EXPECT_GE(eng.num_threads(), 1u);
}

TEST(AsyncEngine, SubmitGetMatchesSerialReference) {
  const std::size_t n = 512;
  const std::size_t count = 16;
  const abft::Options opts = abft::Options::online_opt(true);
  Workload w(count, n, 2100);
  const auto reference = serial_reference(w.ins, n, opts);

  engine::BatchEngine eng(4);
  engine::BatchOptions bopts;
  bopts.abft = opts;
  engine::BatchFuture future = eng.submit_batch(w.lanes, n, bopts);
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.wait_for(std::chrono::minutes(1)));
  const auto report = future.get();
  EXPECT_FALSE(future.valid());  // one-shot, like std::future
  EXPECT_EQ(report.lanes, count);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.cancelled_lanes, 0u);
  for (std::size_t l = 0; l < count; ++l) {
    EXPECT_TRUE(bit_identical(w.outs[l], reference[l])) << "lane=" << l;
  }
  EXPECT_EQ(eng.pending_jobs(), 0u);
}

TEST(AsyncEngine, ConcurrentSubmittersProduceBitIdenticalSpectra) {
  const std::size_t n = 512;
  const std::size_t lanes_per_job = 6;
  const std::size_t jobs_per_thread = 3;
  const std::size_t submitters = 4;
  const abft::Options opts = abft::Options::online_opt(true);

  std::vector<std::vector<Workload>> work;
  for (std::size_t t = 0; t < submitters; ++t) {
    std::vector<Workload> per_thread;
    for (std::size_t j = 0; j < jobs_per_thread; ++j) {
      per_thread.emplace_back(lanes_per_job, n,
                              3000 + 100 * t + lanes_per_job * j);
    }
    work.push_back(std::move(per_thread));
  }

  engine::BatchEngine eng(3);
  engine::BatchOptions bopts;
  bopts.abft = opts;
  std::vector<std::vector<engine::BatchFuture>> futures(submitters);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < jobs_per_thread; ++j) {
        futures[t].push_back(eng.submit_batch(work[t][j].lanes, n, bopts));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < submitters; ++t) {
    for (std::size_t j = 0; j < jobs_per_thread; ++j) {
      const auto report = futures[t][j].get();
      EXPECT_TRUE(report.all_ok()) << "t=" << t << " j=" << j;
      const auto reference = serial_reference(work[t][j].ins, n, opts);
      for (std::size_t l = 0; l < lanes_per_job; ++l) {
        EXPECT_TRUE(bit_identical(work[t][j].outs[l], reference[l]))
            << "t=" << t << " j=" << j << " lane=" << l;
      }
    }
  }
  EXPECT_EQ(eng.pending_jobs(), 0u);
}

TEST(AsyncEngine, SmallJobQueuedBehindLargeOneCompletesOutOfOrder) {
  // Workers advance to the next queued job as soon as the front job's
  // lanes are all claimed, so a tiny job queued behind a heavyweight one
  // overtakes the stragglers — completion order is by finish, not FIFO.
  const std::size_t big_n = 1 << 17;
  const std::size_t small_n = 64;
  const abft::Options opts = abft::Options::online_opt(true);
  Workload big(4, big_n, 4100);
  Workload small(1, small_n, 4200);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const char* tag) {
    return [&, tag](engine::BatchReport&) {
      std::scoped_lock lock(order_mu);
      order.emplace_back(tag);
    };
  };

  engine::BatchEngine eng(2);
  engine::BatchOptions big_opts;
  big_opts.abft = opts;
  big_opts.chunk = 1;  // final big lane is claimed alone: a wide window
  engine::BatchOptions small_opts;
  small_opts.abft = opts;
  auto fb = eng.submit_batch(big.lanes, big_n, big_opts);
  auto fs = eng.submit_batch(small.lanes, small_n, small_opts);
  fb.then(record("big"));
  fs.then(record("small"));

  const auto small_report = fs.get();
  const auto big_report = fb.get();
  EXPECT_TRUE(small_report.all_ok());
  EXPECT_TRUE(big_report.all_ok());
  const auto small_ref = serial_reference(small.ins, small_n, opts);
  EXPECT_TRUE(bit_identical(small.outs[0], small_ref[0]));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order.front(), "small");
}

TEST(AsyncEngine, LaneExceptionsPropagateThroughTheFuture) {
  // n = 10 splits as 5*2 out of place but has no k*r*k shape, so the
  // in-place lane fails at plan resolution while its neighbor succeeds.
  const std::size_t n = 10;
  auto good = random_vector(n, InputDistribution::kUniform, 5);
  auto bad = random_vector(n, InputDistribution::kUniform, 6);
  std::vector<cplx> out_good(n);
  std::vector<engine::Lane> lanes{{good.data(), out_good.data(), nullptr},
                                  {bad.data(), nullptr, nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);

  engine::BatchEngine eng(2);
  auto future = eng.submit_batch(lanes, n, bopts);
  const auto report = future.get();
  EXPECT_EQ(report.failed_lanes, 1u);
  EXPECT_TRUE(report.errors[0].empty());
  ASSERT_TRUE(report.exceptions[1]);
  EXPECT_THROW(std::rethrow_exception(report.exceptions[1]),
               std::invalid_argument);
  // The future was consumed by get(); further use is caught misuse.
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  EXPECT_THROW(future.wait(), std::invalid_argument);
  EXPECT_THROW((void)engine::BatchFuture{}.ready(), std::invalid_argument);
}

TEST(AsyncEngine, GetOnCopyInvalidatesThenOnOtherCopies) {
  // All copies observe one completion; once any copy's get() consumed the
  // report, a late then() on another copy is caught misuse rather than a
  // silent moved-from report.
  const std::size_t n = 128;
  Workload w(2, n, 12000);
  engine::BatchEngine eng(2);
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  auto f1 = eng.submit_batch(w.lanes, n, bopts);
  auto f2 = f1;  // copy shares the completion state
  EXPECT_TRUE(f1.get().all_ok());
  EXPECT_THROW(f2.then([](engine::BatchReport&) {}), std::invalid_argument);
  EXPECT_THROW((void)f2.get(), std::invalid_argument);
}

TEST(AsyncEngine, SubmissionMisuseThrowsSynchronously) {
  engine::BatchEngine eng(2);
  engine::Lane null_lane{nullptr, nullptr, nullptr};
  EXPECT_THROW((void)eng.submit_batch({&null_lane, 1}, 8),
               std::invalid_argument);
  cplx one{1.0, 0.0};
  engine::Lane lane{&one, nullptr, nullptr};
  EXPECT_THROW((void)eng.submit_batch({&lane, 1}, 0), std::invalid_argument);
}

TEST(AsyncEngine, EmptySubmissionIsImmediatelyReady) {
  engine::BatchEngine eng(2);
  auto future = eng.submit_batch(std::span<const engine::Lane>{}, 8);
  EXPECT_TRUE(future.ready());
  bool ran = false;
  future.then([&](engine::BatchReport& r) {
    ran = true;  // already ready: runs inline on this thread
    EXPECT_EQ(r.lanes, 0u);
  });
  EXPECT_TRUE(ran);
  const auto report = future.get();
  EXPECT_EQ(report.lanes, 0u);
  EXPECT_TRUE(report.all_ok());
}

TEST(AsyncEngine, CancelSkipsQueuedLanesWithCancelledTaxonomy) {
  const abft::Options opts = abft::Options::online_opt(true);
  // One worker: the heavyweight front job keeps it busy long enough that
  // the cancel lands before any lane of the queued jobs starts.
  engine::BatchEngine eng(1);
  Workload blocker(4, 1 << 16, 5100);
  Workload victim(8, 256, 5200);
  // A real-lane victim too: r2c lanes whose spectra must stay unwritten.
  const std::size_t rn = 256;
  const std::size_t rlanes = 3;
  const cplx sentinel{-7.0, 7.0};
  std::vector<double> re(rlanes * rn, 1.0);
  std::vector<cplx> spec(rlanes * (rn / 2 + 1), sentinel);
  std::vector<engine::RealLane> real_victim(rlanes);
  for (std::size_t l = 0; l < rlanes; ++l) {
    real_victim[l] = {re.data() + l * rn, spec.data() + l * (rn / 2 + 1),
                      nullptr};
  }
  engine::BatchOptions bopts;
  bopts.abft = opts;
  auto fb = eng.submit_batch(blocker.lanes, 1 << 16, bopts);
  auto fv = eng.submit_batch(victim.lanes, 256, bopts);
  auto fr = eng.submit_real_batch(real_victim, rn,
                                  engine::RealDirection::kForward, bopts);
  engine::BatchTicket ticket = fv.ticket();
  EXPECT_FALSE(ticket.cancelled());
  ticket.cancel();
  EXPECT_TRUE(ticket.cancelled());
  fr.ticket().cancel();

  for (auto* f : {&fv, &fr}) {
    const auto victim_report = f->get();
    const std::size_t lanes = f == &fv ? 8u : rlanes;
    EXPECT_EQ(victim_report.lanes, lanes);
    EXPECT_EQ(victim_report.cancelled_lanes, lanes);
    EXPECT_EQ(victim_report.failed_lanes, lanes);
    EXPECT_FALSE(victim_report.all_ok());
    for (std::size_t l = 0; l < victim_report.lanes; ++l) {
      ASSERT_TRUE(victim_report.exceptions[l]) << "lane=" << l;
      EXPECT_THROW(std::rethrow_exception(victim_report.exceptions[l]),
                   CancelledError)
          << "lane=" << l;
      EXPECT_EQ(victim_report.errors[l], "lane cancelled before execution");
    }
  }
  // Skipped lanes never touched their outputs.
  for (const auto& out : victim.outs) {
    EXPECT_EQ(out, std::vector<cplx>(256));
  }
  EXPECT_EQ(spec, std::vector<cplx>(spec.size(), sentinel));
  const auto blocker_report = fb.get();
  EXPECT_TRUE(blocker_report.all_ok());  // cancel touched only its own job

  // Cancelling a finished job is a harmless no-op.
  Workload after(2, 128, 5300);
  auto fa = eng.submit_batch(after.lanes, 128, bopts);
  auto late_ticket = fa.ticket();
  const auto after_report = fa.get();
  late_ticket.cancel();
  EXPECT_TRUE(after_report.all_ok());
}

TEST(AsyncEngine, MidRunCancellationPublishesConsistentCancelCounts) {
  // Regression for the finisher's read of the per-job cancelled counter:
  // when a cancel lands while workers are mid-batch, some lanes complete
  // and some skip, and the worker that finishes the job must observe every
  // increment the skipping workers published (release increments paired
  // with the finisher's acquire load — it previously leaned on the
  // completion counter's ordering by accident). Run under TSan in CI.
  const std::size_t n = 1 << 12;
  const abft::Options opts = abft::Options::online_opt(true);
  engine::BatchEngine eng(4);
  engine::BatchOptions bopts;
  bopts.abft = opts;
  for (int round = 0; round < 8; ++round) {
    Workload work(16, n, 7000 + 10 * round);
    auto fut = eng.submit_batch(work.lanes, n, bopts);
    auto ticket = fut.ticket();
    std::thread canceller([&] { ticket.cancel(); });
    const auto report = fut.get();
    canceller.join();
    EXPECT_TRUE(ticket.cancelled());
    // The finisher's tally must agree with the per-lane error slots even
    // when the cancel raced the last lanes of the batch.
    std::size_t cancelled = 0;
    for (std::size_t l = 0; l < report.lanes; ++l) {
      if (!report.exceptions[l]) {
        // Completed lane: bit-identical result, untouched by the cancel.
        EXPECT_TRUE(report.errors[l].empty()) << "lane=" << l;
        continue;
      }
      EXPECT_THROW(std::rethrow_exception(report.exceptions[l]),
                   CancelledError)
          << "round=" << round << " lane=" << l;
      ++cancelled;
    }
    EXPECT_EQ(report.cancelled_lanes, cancelled) << "round=" << round;
    EXPECT_EQ(report.failed_lanes, cancelled) << "round=" << round;
  }
}

TEST(AsyncEngine, DestructionDrainsInFlightJobs) {
  const std::size_t n = 1024;
  const abft::Options opts = abft::Options::online_opt(true);
  std::vector<Workload> work;
  for (std::size_t j = 0; j < 6; ++j) work.emplace_back(5, n, 6000 + 10 * j);

  std::vector<engine::BatchFuture> futures;
  {
    engine::BatchEngine eng(2);
    engine::BatchOptions bopts;
    bopts.abft = opts;
    for (auto& w : work) futures.push_back(eng.submit_batch(w.lanes, n, bopts));
    // Engine dies here with jobs queued and executing: the destructor must
    // drain the queue and fulfill every future, not crash or abandon them.
  }
  for (std::size_t j = 0; j < work.size(); ++j) {
    ASSERT_TRUE(futures[j].ready()) << "job=" << j;
    const auto report = futures[j].get();
    EXPECT_TRUE(report.all_ok()) << "job=" << j;
    const auto reference = serial_reference(work[j].ins, n, opts);
    for (std::size_t l = 0; l < reference.size(); ++l) {
      EXPECT_TRUE(bit_identical(work[j].outs[l], reference[l]))
          << "job=" << j << " lane=" << l;
    }
  }
}

TEST(AsyncEngine, ThenCallbackFiresOnWorkerAfterCompletion) {
  const std::size_t n = 2048;
  Workload w(6, n, 7000);
  engine::BatchEngine eng(2);
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);

  std::atomic<int> calls{0};
  std::atomic<std::size_t> seen_lanes{0};
  auto future = eng.submit_batch(w.lanes, n, bopts);
  future.then([&](engine::BatchReport& r) {
    seen_lanes.store(r.lanes, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  future.then([&](engine::BatchReport&) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  future.wait();
  // The completion contract: ready is published only after every callback
  // registered before completion has run, so wait() returning means both
  // fired.
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(seen_lanes.load(), 6u);
  EXPECT_TRUE(future.get().all_ok());
}

// ------------------------------------------------------------ warm plans

TEST(WarmPlans, FirstSubmissionAfterWarmupDoesZeroRaGeneration) {
  // A size this binary has not touched: 1408 = 2^7 * 11 (3 does not divide
  // it, so the encoding is valid; it is square-free times a power of two,
  // so the in-place variant is expected to be skipped or supported without
  // affecting the out-of-place count).
  const std::size_t n = 1408;
  PlanConfig config;

  const auto gens_before_warm = checksum::ra_generations();
  const std::size_t resident = warm_plans({&n, 1}, config);
  EXPECT_GE(resident, 1u);
  // The warm-up itself paid the rA generation for this size's layers.
  EXPECT_GT(checksum::ra_generations(), gens_before_warm);

  Workload w(4, n, 10000);
  const auto gens_before_submit = checksum::ra_generations();
  const auto builds_before_submit = abft::ProtectionPlan::build_count();
  const auto report = engine::BatchEngine::shared()
                          .submit_batch(w.lanes, n, {make_abft_options(config)})
                          .get();
  EXPECT_TRUE(report.all_ok());
  // The whole point: submission found every plan resident — zero rA
  // passes, zero ProtectionPlan builds.
  EXPECT_EQ(checksum::ra_generations(), gens_before_submit);
  EXPECT_EQ(abft::ProtectionPlan::build_count(), builds_before_submit);
}

TEST(WarmPlans, OfflineSchemeCountsItsSingleSharedPlanOnce) {
  // Offline protection maps both the out-of-place and in-place entry
  // points to one Scheme::kOffline cache entry; the resident count must
  // report the distinct plan, not the two resolutions.
  const std::size_t n = 2816;  // 2^8 * 11, unused elsewhere in this binary
  PlanConfig config;
  config.protection = Protection::kOffline;
  EXPECT_EQ(warm_plans({&n, 1}, config), 1u);
}

TEST(WarmPlans, SkipsUnsupportedVariantsInsteadOfThrowing)
{
  // 9 = 3*3: the checksum encoding degenerates for both the out-of-place
  // split (3 divides both layers) and the k*r*k outer size, so nothing
  // becomes resident — but warm-up must not throw.
  const std::size_t bad = 9;
  EXPECT_EQ(warm_plans({&bad, 1}), 0u);
  // n = 1 is a degenerate no-op size.
  const std::size_t one = 1;
  (void)warm_plans({&one, 1});
}

// ------------------------------------------------------ wait_for edge cases

TEST(AsyncEngine, WaitForZeroOrNegativeTimeoutIsAPoll) {
  engine::BatchEngine eng(1);
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  auto fut = eng.submit_tasks(1, [&](std::size_t, abft::Stats&) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return open; });
  });

  // The job is parked on the latch: zero and negative timeouts answer
  // "not ready" immediately instead of blocking for any duration.
  EXPECT_FALSE(fut.wait_for(std::chrono::nanoseconds::zero()));
  EXPECT_FALSE(fut.wait_for(std::chrono::milliseconds(-5)));
  EXPECT_FALSE(fut.ready());
  // A short positive timeout genuinely waits, then reports not-ready.
  EXPECT_FALSE(fut.wait_for(std::chrono::milliseconds(1)));

  {
    std::scoped_lock lk(mu);
    open = true;
  }
  cv.notify_all();
  fut.wait();
  // Ready futures answer true for any timeout, including the poll forms
  // (single acquire load, no lock).
  EXPECT_TRUE(fut.wait_for(std::chrono::nanoseconds::zero()));
  EXPECT_TRUE(fut.wait_for(std::chrono::milliseconds(-1)));
  EXPECT_TRUE(fut.wait_for(std::chrono::minutes(1)));
  EXPECT_TRUE(fut.get().all_ok());
}

TEST(AsyncEngine, WaitForOnInvalidFutureThrowsInvalidArgument) {
  engine::BatchFuture fut;  // default-constructed: no associated batch
  EXPECT_FALSE(fut.valid());
  EXPECT_THROW((void)fut.wait_for(std::chrono::nanoseconds::zero()),
               std::invalid_argument);
  EXPECT_THROW((void)fut.ready(), std::invalid_argument);
}

// ------------------------------------------------------- plan cache stats

TEST(PlanCacheStatsExport, ReportsAllFourCaches) {
  const auto stats = plan_cache_stats();
  ASSERT_GE(stats.size(), 4u);
  auto find = [&](const char* name) -> const PlanCacheStats* {
    for (const auto& s : stats) {
      if (std::string(s.name) == name) return &s;
    }
    return nullptr;
  };
  for (const char* name : {"checksum-weights", "fft-plan", "inplace-plan",
                           "protection-plan"}) {
    const PlanCacheStats* s = find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->capacity, plan_cache_capacity()) << name;
  }
}

TEST(PlanCacheStatsExport, CountersMoveWithTraffic) {
  auto find = [](const std::vector<PlanCacheStats>& stats, const char* name) {
    for (const auto& s : stats) {
      if (std::string(s.name) == name) return s;
    }
    return PlanCacheStats{};
  };
  const std::size_t n = 704;  // 2^6 * 11: unused elsewhere in this binary
  const auto before = find(plan_cache_stats(), "protection-plan");
  auto x = random_vector(n, InputDistribution::kUniform, 11000);
  (void)abft::protected_fft(x, abft::Options::online_opt(true));
  const auto mid = find(plan_cache_stats(), "protection-plan");
  EXPECT_GT(mid.misses, before.misses);
  EXPECT_GT(mid.size, 0u);
  (void)abft::protected_fft(x, abft::Options::online_opt(true));
  const auto after = find(plan_cache_stats(), "protection-plan");
  EXPECT_GT(after.hits, mid.hits);
}

}  // namespace
}  // namespace ftfft
