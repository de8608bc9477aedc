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

  // 4. Overload drill: a private one-worker engine with a pending-lane cap
  // of 8 shows the engine's scheduling under load — a full queue blocks
  // the submitter, a higher class overtakes queued work, and a ticket
  // cancels what has not started.
  engine::BatchEngine eng(1);
  eng.set_queue_cap(8);
  std::atomic<std::size_t> background_run{0};
  const auto background_lane = [&background_run](std::size_t,
                                                 abft::Stats&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    background_run.fetch_add(1);
  };
  // Two low-class jobs of four lanes fill the queue (chunk = 1: the worker
  // re-checks the queues after every lane).
  const engine::SubmitOptions low{engine::Priority::kLow};
  auto first = eng.submit_tasks(4, background_lane, low, /*chunk=*/1);
  auto rest = eng.submit_tasks(4, background_lane, low, /*chunk=*/1);

  const std::size_t hot_n = 1024;
  std::vector<std::vector<cplx>> hot_in(4);
  std::vector<std::vector<cplx>> hot_out(4, std::vector<cplx>(hot_n));
  std::vector<engine::Lane> hot_lanes(4);
  for (std::size_t l = 0; l < 4; ++l) {
    hot_in[l] = random_vector(hot_n, InputDistribution::kUniform, 7000 + l);
    hot_lanes[l] = {hot_in[l].data(), hot_out[l].data(), nullptr};
  }
  engine::BatchOptions hot_opts;
  hot_opts.abft = make_abft_options(config);
  hot_opts.submit.priority = engine::Priority::kHigh;

  // The queue is full, so the high-class wave blocks its submitter thread
  // until the first background job retires its lanes. Once admitted it
  // overtakes the queued low-class job at the next lane boundary, and the
  // low job's ticket cancels its lanes that have not started.
  engine::BatchFuture hot;
  double blocked_ms = 0.0;
  std::size_t run_before_hot = 0;
  std::thread front_door([&] {
    const auto t0 = std::chrono::steady_clock::now();
    hot = eng.submit_batch(hot_lanes, hot_n, hot_opts);
    blocked_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    hot.then([&](engine::BatchReport&) {
      run_before_hot = background_run.load();
    });
    rest.ticket().cancel();
  });
  front_door.join();
  const auto hot_report = hot.get();
  const auto first_report = first.get();
  const auto rest_report = rest.get();
  std::printf("urgent wave: blocked %.1f ms on the full queue, %zu lanes, "
              "%zu failed\n",
              blocked_ms, hot_report.lanes, hot_report.failed_lanes);
  std::printf("background lanes run before the urgent wave finished: %zu "
              "of 8\n",
              run_before_hot);
  std::printf("background jobs: first %zu of %zu lanes run, rest %zu of %zu "
              "lanes cancelled\n",
              first_report.lanes - first_report.failed_lanes,
              first_report.lanes, rest_report.cancelled_lanes,
              rest_report.lanes);

  // 5. The per-class scheduler snapshot a monitoring loop would scrape.
  const auto sched = eng.scheduler_stats();
  for (const auto p : {engine::Priority::kHigh, engine::Priority::kNormal,
                       engine::Priority::kLow}) {
    const auto& c = sched.at(p);
    std::printf(
        "class %-6s  jobs %zu/%zu  lanes run %zu, cancelled %zu  "
        "p99 queue wait %.1f us\n",
        engine::priority_name(p), c.jobs_completed, c.jobs_submitted,
        c.lanes_completed, c.lanes_cancelled, c.queue_wait.p99 * 1e6);
  }
  return hot_report.all_ok() ? 0 : 1;
}
