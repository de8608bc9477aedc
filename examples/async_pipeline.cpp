// Async serving pipeline: submit -> overlap -> get.
//
// Build & run:   ./examples/async_pipeline
//
// A serving layer receives requests in waves. Instead of blocking on every
// batch, it warms the plan caches for its known size distribution, queues
// each wave on the shared engine as it arrives, overlaps its own work
// (here: preparing the next wave) with the in-flight transforms, and
// collects BatchReports through futures — with a completion callback
// feeding a running fault-tolerance tally.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/ftfft.hpp"

int main() {
  using namespace ftfft;

  const std::size_t sizes[] = {1024, 4096};
  const std::size_t waves = 4;
  const std::size_t lanes_per_wave = 8;
  PlanConfig config;  // online ABFT + memory fault tolerance

  // 1. Startup: pre-resolve FFT plans and ProtectionPlans for the size
  // distribution this service expects, so the first request of each size
  // pays no setup (zero rA-generation passes at submission time).
  const std::size_t resident = warm_plans(sizes, config);
  std::printf("warmed %zu protection plans for %zu sizes\n", resident,
              std::size(sizes));

  // 2. Admission loop: queue each wave and immediately move on to prepare
  // the next one while workers transform the previous waves.
  struct Wave {
    std::size_t n = 0;
    std::vector<std::vector<cplx>> in, out;
    std::vector<engine::Lane> lanes;
    engine::BatchFuture future;
  };
  std::atomic<std::size_t> verifications{0};
  std::vector<Wave> inflight(waves);
  for (std::size_t w = 0; w < waves; ++w) {
    Wave& wave = inflight[w];
    wave.n = sizes[w % std::size(sizes)];
    wave.in.resize(lanes_per_wave);
    wave.out.assign(lanes_per_wave, std::vector<cplx>(wave.n));
    wave.lanes.resize(lanes_per_wave);
    for (std::size_t l = 0; l < lanes_per_wave; ++l) {
      wave.in[l] = random_vector(wave.n, InputDistribution::kUniform,
                                 1000 + 10 * w + l);
      wave.lanes[l] = {wave.in[l].data(), wave.out[l].data(), nullptr};
    }
    wave.future = engine::BatchEngine::shared().submit_batch(
        wave.lanes, wave.n, {make_abft_options(config)});
    wave.future.then([&verifications](engine::BatchReport& report) {
      // Completion callback on the worker that retired the job: feed a
      // monitoring counter without blocking anyone.
      verifications.fetch_add(report.totals.verifications,
                              std::memory_order_relaxed);
    });
    std::printf("wave %zu submitted: %zu x %zu-point transforms "
                "(pending jobs: %zu)\n",
                w, lanes_per_wave, wave.n,
                engine::BatchEngine::shared().pending_jobs());
  }

  // 3. Collection: futures complete in finish order; get() blocks only on
  // work that is still outstanding.
  for (std::size_t w = 0; w < waves; ++w) {
    const engine::BatchReport report = inflight[w].future.get();
    std::printf("wave %zu done: %zu lanes, %zu failed, %zu corrections\n", w,
                report.lanes, report.failed_lanes,
                report.totals.mem_errors_corrected);
  }
  std::printf("checksum verifications across all waves: %zu\n",
              verifications.load());

  // 4. Overload: a private one-worker engine with a tiny pending-lane cap
  // shows the admission control a serving front door leans on — priority
  // classes, deadlines, backpressure and load shedding.
  engine::BatchEngine eng(1);
  eng.set_queue_cap(4);

  // A low-priority, cancellable background job fills the queue (chunk = 1
  // so the worker claims one item at a time and the rest stay sheddable).
  engine::SubmitOptions background;
  background.priority = engine::Priority::kLow;
  background.cancellable = true;
  auto bg = eng.submit_tasks(
      4,
      [](std::size_t, abft::Stats&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      },
      background, /*chunk=*/1);

  // The queue is at capacity: same-class traffic submitted with a zero
  // admission timeout is refused immediately with QueueFullError instead
  // of waiting for space.
  engine::SubmitOptions fail_fast = background;
  fail_fast.admission_timeout = std::chrono::nanoseconds::zero();
  const char* outcome = "admitted";
  try {
    (void)eng.submit_tasks(2, [](std::size_t, abft::Stats&) {}, fail_fast);
  } catch (const QueueFullError&) {
    outcome = "rejected (queue full)";
  }
  std::printf("fail-fast submit with the queue full: %s\n", outcome);

  // A high-priority transform wave with a deadline sheds the cancellable
  // background lanes instead of queueing behind them.
  const std::size_t hot_n = 1024;
  std::vector<std::vector<cplx>> hot_in(2), hot_out(2,
                                                    std::vector<cplx>(hot_n));
  std::vector<engine::Lane> hot_lanes(2);
  for (std::size_t l = 0; l < 2; ++l) {
    hot_in[l] = random_vector(hot_n, InputDistribution::kUniform, 7000 + l);
    hot_lanes[l] = {hot_in[l].data(), hot_out[l].data(), nullptr};
  }
  engine::BatchOptions hot_opts;
  hot_opts.abft = make_abft_options(config);
  hot_opts.submit.priority = engine::Priority::kHigh;
  hot_opts.submit.deadline = std::chrono::milliseconds(250);
  const auto hot = eng.submit_batch(hot_lanes, hot_n, hot_opts).get();
  std::printf("urgent wave: %zu lanes, deadline %s\n", hot.lanes,
              hot.deadline_expired_lanes == 0 ? "met" : "missed");

  const auto bg_report = bg.get();
  std::printf("background job: %zu of %zu lanes shed under overload\n",
              bg_report.shed_lanes, bg_report.lanes);

  // 5. The per-class scheduler snapshot a monitoring loop would scrape.
  const auto sched = eng.scheduler_stats();
  for (const auto p : {engine::Priority::kHigh, engine::Priority::kNormal,
                       engine::Priority::kLow}) {
    const auto& c = sched.at(p);
    std::printf(
        "class %-6s  jobs %zu/%zu (rejected %zu)  shed lanes %zu  "
        "p99 queue wait %.1f us\n",
        engine::priority_name(p), c.jobs_completed, c.jobs_submitted,
        c.jobs_rejected, c.shed_lanes, c.queue_wait.p99 * 1e6);
  }
  return 0;
}
