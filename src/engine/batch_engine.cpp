#include "engine/batch_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "abft/protected_fft.hpp"
#include "abft/protection_plan.hpp"
#include "abft/real_protection.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/scratch.hpp"
#include "fft/real_fft.hpp"

namespace ftfft::engine {

namespace detail {

/// Completion state of one submission, shared between the queued job, the
/// BatchFuture and any BatchTicket copies. The report's per-lane slots are
/// pre-sized at submission and written lock-free by workers (disjoint
/// indices); `ready` is an atomic published with release semantics under
/// `mu`, so waiters blocked on `cv` see it through the mutex while
/// ready()/wait()/wait_for() fast paths see it with one acquire load — an
/// already-ready future costs no lock at all.
struct BatchShared {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> ready{false};
  bool report_taken = false;
  std::exception_ptr error;  // job aborted wholesale (never per-lane)
  BatchReport report;
  std::vector<std::function<void(BatchReport&)>> callbacks;
  std::atomic<bool> cancel{false};
};

}  // namespace detail

const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kLow:
      return "low";
    default:
      return "normal";
  }
}

namespace {

std::size_t pick_chunk(std::size_t lanes, std::size_t threads,
                       std::size_t requested) {
  if (requested > 0) return requested;
  // ~4 grabs per worker: enough slack for load balancing without
  // hammering the shared cursor on small lanes.
  const std::size_t grabs = std::max<std::size_t>(threads * 4, 1);
  return std::max<std::size_t>(1, (lanes + grabs - 1) / grabs);
}

/// Fulfills the shared state: drains the registered callbacks (outside the
/// state lock, re-checking for ones registered mid-drain), then publishes
/// ready — so a caller that observes ready via wait()/get() knows every
/// callback registered before completion has finished. Callbacks are
/// documented non-throwing; a throw here would take down a worker thread,
/// so it is swallowed.
void fulfill(detail::BatchShared& state) {
  for (;;) {
    std::vector<std::function<void(BatchReport&)>> callbacks;
    {
      std::scoped_lock lock(state.mu);
      if (state.callbacks.empty()) {
        state.ready.store(true, std::memory_order_release);
        break;
      }
      callbacks.swap(state.callbacks);
    }
    for (auto& cb : callbacks) {
      try {
        cb(state.report);
      } catch (...) {
      }
    }
  }
  state.cv.notify_all();
}

double secs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentiles over a copy of one latency ring. `lifetime`
/// and `max_v` are lifetime aggregates (the ring only holds the most
/// recent kLatencyRingCap samples).
LatencyPercentiles percentiles(std::vector<double> samples,
                               std::size_t lifetime, double max_v) {
  LatencyPercentiles out;
  out.count = lifetime;
  out.max = max_v;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank > 0) --rank;
    return samples[std::min(samples.size() - 1, rank)];
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  return out;
}

}  // namespace

// ------------------------------------------------------------- BatchTicket

BatchTicket::BatchTicket(std::shared_ptr<detail::BatchShared> shared)
    : shared_(std::move(shared)) {}

void BatchTicket::cancel() const noexcept {
  if (shared_) shared_->cancel.store(true, std::memory_order_relaxed);
}

bool BatchTicket::cancelled() const noexcept {
  return shared_ && shared_->cancel.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- BatchFuture

BatchFuture::BatchFuture(std::shared_ptr<detail::BatchShared> shared)
    : shared_(std::move(shared)) {}

bool BatchFuture::ready() const {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  // Acquire pairs with the release store in fulfill(): once observed, the
  // report writes that preceded publication are visible too.
  return shared_->ready.load(std::memory_order_acquire);
}

void BatchFuture::wait() const {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  if (shared_->ready.load(std::memory_order_acquire)) return;
  std::unique_lock lock(shared_->mu);
  shared_->cv.wait(lock, [&] {
    return shared_->ready.load(std::memory_order_acquire);
  });
}

bool BatchFuture::wait_for(std::chrono::nanoseconds timeout) const {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  if (shared_->ready.load(std::memory_order_acquire)) return true;
  // Zero/negative timeout is a pure poll: the acquire load above is the
  // whole story — no lock, no condition-variable machinery.
  if (timeout <= std::chrono::nanoseconds::zero()) return false;
  std::unique_lock lock(shared_->mu);
  return shared_->cv.wait_for(lock, timeout, [&] {
    return shared_->ready.load(std::memory_order_acquire);
  });
}

BatchReport BatchFuture::get() {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  BatchReport out;
  {
    std::unique_lock lock(shared_->mu);
    shared_->cv.wait(lock, [&] {
      return shared_->ready.load(std::memory_order_acquire);
    });
    ftfft::detail::require(!shared_->report_taken,
                    "BatchFuture::get: report already taken");
    if (shared_->error) {
      std::exception_ptr error = shared_->error;
      lock.unlock();
      shared_.reset();
      std::rethrow_exception(error);
    }
    shared_->report_taken = true;
    out = std::move(shared_->report);
  }
  shared_.reset();
  return out;
}

void BatchFuture::then(std::function<void(BatchReport&)> cb) {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  ftfft::detail::require(cb != nullptr, "BatchFuture::then: null callback");
  std::scoped_lock lock(shared_->mu);
  if (!shared_->ready.load(std::memory_order_acquire)) {
    shared_->callbacks.push_back(std::move(cb));
    return;
  }
  // Already completed: run inline on the caller. The lock stays held so a
  // concurrent get() on a copy of this future cannot move the report out
  // from under the callback (which is why callbacks must not re-enter this
  // future); a report already consumed by get() is caught misuse.
  ftfft::detail::require(!shared_->report_taken,
                         "BatchFuture::then: report already taken by get()");
  cb(shared_->report);
}

BatchTicket BatchFuture::ticket() const {
  ftfft::detail::require(shared_ != nullptr, "BatchFuture: no associated batch");
  return BatchTicket(shared_);
}

// -------------------------------------------------------------- BatchEngine

struct BatchEngine::Impl {
  using Clock = std::chrono::steady_clock;

  // Most recent latency samples kept per class for the percentile
  // snapshot; lifetime counts and maxima are tracked separately.
  static constexpr std::size_t kLatencyRingCap = 4096;

  // Runs item `index` of a job: the transform of lane `index` for batch
  // submissions, the caller's callable for task fan-outs. Built once per
  // job at submission (plans resolved, lanes copied) and shared by every
  // worker draining the job; `stats` is the item's pre-sized
  // BatchReport::per_lane slot.
  using ItemFn = std::function<void(std::size_t index, abft::Stats& stats)>;

  // One queued submission. Heap-owned and held in its class's queue; kept
  // alive by shared_ptrs held by the queue, by every worker currently
  // draining it, and (through `state`) by the caller's
  // BatchFuture/BatchTicket. The fields above the first-claim block are
  // written by the submitting thread before the job is published under
  // the queue mutex and never mutated afterwards; the first-claim block is
  // guarded by mu_.
  struct Job {
    std::size_t count = 0;  // items; never mutated after publication
    const char* kind = "lane";  // "lane" | "task", for skip messages
    ItemFn run;                 // released by finish()
    std::shared_ptr<detail::BatchShared> state;
    Priority priority = Priority::kNormal;
    Clock::time_point submit_time{};
    std::size_t chunk = 1;

    // First-claim timing, guarded by mu_.
    bool started = false;
    Clock::time_point start_time{};

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> remaining{0};
    // Skip-path tally: release increments in skip_item pair with the
    // acquire load in finish().
    std::atomic<std::size_t> cancelled{0};
  };

  // Lifetime scheduler counters + latency rings of one class, guarded by
  // stats_mu_ (never nested inside mu_: stats are recorded after mu_ is
  // released).
  struct ClassAccum {
    std::size_t jobs_submitted = 0;
    std::size_t jobs_completed = 0;
    std::size_t lanes_submitted = 0;
    std::size_t lanes_completed = 0;
    std::size_t lanes_cancelled = 0;
    std::vector<double> wait_ring, run_ring;
    std::size_t wait_next = 0, run_next = 0;
    std::size_t wait_count = 0, run_count = 0;
    double wait_max = 0.0, run_max = 0.0;
  };

  explicit Impl(std::size_t num_threads)
      : num_threads_(resolve_threads(num_threads)),
        queue_cap_(env_size("FTFFT_ENGINE_QUEUE_CAP", 0)) {}

  static std::size_t resolve_threads(std::size_t requested) {
    if (requested != 0) return requested;
    const std::size_t from_env = env_size("FTFFT_ENGINE_THREADS", 0);
    if (from_env != 0) return from_env;
    return std::max(1u, std::thread::hardware_concurrency());
  }

  // Drains the queues: workers keep pulling jobs after stop_ is set and
  // only exit once nothing is left to claim, and join() then waits for
  // in-flight lanes — so every admitted future is fulfilled before the
  // engine dies. Admission waiters are woken too and admit through (the
  // draining workers run what they enqueue).
  ~Impl() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void spawn_workers_locked() {
    if (!workers_.empty()) return;
    workers_.reserve(num_threads_);
    for (std::size_t w = 0; w < num_threads_; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  static std::size_t class_index(Priority p) noexcept {
    return static_cast<std::size_t>(p);
  }

  void worker_loop() {
    t_pool_thread = this;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || queued_jobs_ > 0; });
        if (queued_jobs_ == 0) return;  // stop_ set and queues drained
        job = pick_locked();
      }
      work_on(*job);
    }
  }

  // The front of the highest-priority non-empty class; stamps its first
  // claim. Only class fronts are ever claimed, so an exhausted job that
  // is still queued is its class's front.
  std::shared_ptr<Job> pick_locked() {
    for (auto& q : queues_) {
      if (q.empty()) continue;
      Job& front = *q.front();
      if (!front.started) {
        front.started = true;
        front.start_time = Clock::now();
      }
      return q.front();
    }
    return nullptr;
  }

  // True when a worker between chunks should return to the scheduler
  // because new work arrived (sched_version_ is bumped by every enqueue).
  // A cancelled job is exempt: its remaining items are near-free skips,
  // and finishing the sweep is what frees queue capacity and fulfills the
  // future fastest.
  [[nodiscard]] bool should_reschedule(const Job& job,
                                       std::uint64_t seen) const {
    return !job.state->cancel.load(std::memory_order_relaxed) &&
           sched_version_.load(std::memory_order_acquire) != seen;
  }

  // Claims chunks of the job's items until its cursor is exhausted or the
  // scheduler has new work, then retires an exhausted job from its class
  // queue (so workers move on while stragglers finish this one) and, if
  // this worker ran the job's final item, fulfills its future.
  void work_on(Job& job) {
    const std::size_t count = job.count;
    const std::uint64_t seen = sched_version_.load(std::memory_order_acquire);
    std::size_t done = 0;
    bool exhausted = false;
    {
      // The items' scratch frames nest in one frame per visit, so the
      // workspace's trim rule weighs this job's largest item instead of
      // each item on its own (a sharded transform's phases alternate small
      // and large items). The frame closes, and the trim settles, before
      // this worker's items count down `remaining`: a ready future implies
      // the workspace is quiescent.
      scratch::Frame visit;
      for (;;) {
        const std::size_t begin =
            job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
        if (begin >= count) {
          exhausted = true;
          break;
        }
        const std::size_t end = std::min(begin + job.chunk, count);
        for (std::size_t i = begin; i < end; ++i) run_item(job, i);
        done += end - begin;
        if (should_reschedule(job, seen)) break;
      }
    }
    if (exhausted) retire_from_queue(job);
    if (done > 0 &&
        job.remaining.fetch_sub(done, std::memory_order_acq_rel) == done) {
      finish(job);
    }
  }

  // Removes an exhausted job from the front of its class queue.
  // Idempotent: several workers can exhaust the cursor concurrently and
  // each call this; only the first still finds the job at the front.
  void retire_from_queue(Job& job) {
    std::scoped_lock lock(mu_);
    auto& q = queues_[class_index(job.priority)];
    if (q.empty() || q.front().get() != &job) return;
    q.pop_front();
    --queued_jobs_;
  }

  // Fails the item fast when its ticket was cancelled. Items already
  // executing are never touched — this runs before the item starts. The
  // messages name the job's kind, "lane" or "task" (they are part of the
  // report contract).
  bool skip_item(Job& job, std::size_t index) {
    if (!job.state->cancel.load(std::memory_order_relaxed)) return false;
    const char* kind = job.kind;
    BatchReport& report = job.state->report;
    report.errors[index] = std::string(kind) + " cancelled before execution";
    report.exceptions[index] = std::make_exception_ptr(CancelledError(
        std::string("BatchEngine: ") + kind + " cancelled before execution"));
    // Release pairs with the acquire load in finish(): the finishing
    // worker must observe every increment (and the error slots written
    // above) without leaning on the release sequence of `remaining`.
    job.cancelled.fetch_add(1, std::memory_order_release);
    return true;
  }

  // One item of any job kind: fail fast through skip_item, otherwise run
  // it and record a throw in the item's report slots without disturbing
  // the other items.
  void run_item(Job& job, std::size_t index) {
    if (skip_item(job, index)) return;
    BatchReport& report = job.state->report;
    try {
      job.run(index, report.per_lane[index]);
    } catch (const std::exception& e) {
      report.errors[index] = e.what();
      report.exceptions[index] = std::current_exception();
    } catch (...) {
      report.errors[index] = "unknown exception";
      report.exceptions[index] = std::current_exception();
    }
  }

  // Tallies the finished job's report, releases its pending-lane slots and
  // fulfills its future. Runs on the thread that completed the last item;
  // every other worker has already subtracted its contribution, so the
  // report slots are quiescent. Every finisher claimed the job through
  // pick_locked, so the first-claim time is set.
  void finish(Job& job) {
    detail::BatchShared& state = *job.state;
    const auto fin = Clock::now();
    Clock::time_point start_time{};
    {
      std::scoped_lock lock(mu_);
      start_time = job.start_time;
      pending_lanes_ -= job.count;
    }
    cv_space_.notify_all();
    const double wait_s = secs(start_time - job.submit_time);
    const double run_s = secs(fin - start_time);
    try {
      BatchReport& report = state.report;
      // Acquire pairs with the release increments in skip_item.
      report.cancelled_lanes = job.cancelled.load(std::memory_order_acquire);
      report.queue_wait_seconds = wait_s;
      report.run_seconds = run_s;
      for (std::size_t i = 0; i < report.lanes; ++i) {
        if (report.errors[i].empty()) {
          report.totals += report.per_lane[i];
        } else {
          ++report.failed_lanes;
        }
      }
    } catch (...) {
      state.error = std::current_exception();
    }
    record_completion(job, state.report.cancelled_lanes, wait_s, run_s);
    inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    // Destroy the item closure before publishing completion: closures own
    // caller state (the sharded FFT's phase chain keeps its shared state
    // alive through this function), and a waiter may tear the world down
    // the instant the future reads ready — releasing the closure only when
    // the worker later drops its shared_ptr<Job> would run those
    // destructors concurrently with whatever follows the wait. All items
    // are retired once finish runs (remaining hit zero), so no other
    // worker can still touch the callable.
    job.run = nullptr;
    fulfill(state);
  }

  static void push_sample(std::vector<double>& ring, std::size_t& next,
                          std::size_t& lifetime, double& max_v, double v) {
    if (ring.size() < kLatencyRingCap) {
      ring.push_back(v);
    } else {
      ring[next] = v;
      next = (next + 1) % kLatencyRingCap;
    }
    ++lifetime;
    max_v = std::max(max_v, v);
  }

  void note_admitted(const Job& job) {
    std::scoped_lock lock(stats_mu_);
    ClassAccum& c = stats_[class_index(job.priority)];
    ++c.jobs_submitted;
    c.lanes_submitted += job.count;
  }

  void record_completion(const Job& job, std::size_t cancelled, double wait_s,
                         double run_s) {
    std::scoped_lock lock(stats_mu_);
    ClassAccum& c = stats_[class_index(job.priority)];
    ++c.jobs_completed;
    c.lanes_completed += job.count - cancelled;
    c.lanes_cancelled += cancelled;
    push_sample(c.wait_ring, c.wait_next, c.wait_count, c.wait_max, wait_s);
    push_sample(c.run_ring, c.run_next, c.run_count, c.run_max, run_s);
  }

  // The one job builder: item count, kind, item closure and scheduling
  // class. `count` >= 1 (empty submissions never build a job).
  std::shared_ptr<Job> make_job(std::size_t count, const char* kind,
                                ItemFn run, Priority priority,
                                std::size_t chunk,
                                Clock::time_point submitted) {
    auto state = std::make_shared<detail::BatchShared>();
    BatchReport& report = state->report;
    report.lanes = count;
    report.per_lane.resize(count);
    report.errors.resize(count);
    report.exceptions.resize(count);
    auto job = std::make_shared<Job>();
    job->count = count;
    job->kind = kind;
    job->run = std::move(run);
    job->state = std::move(state);
    job->priority = priority;
    job->submit_time = submitted;
    job->chunk = pick_chunk(count, num_threads_, chunk);
    job->remaining.store(count, std::memory_order_relaxed);
    return job;
  }

  // Admission control: accounts the job's items against the pending-lane
  // cap, blocking until they fit, then appends the job to its class queue,
  // bumps sched_version_ so workers between chunks re-consult the
  // scheduler, and wakes only as many workers as the job has chunks — a
  // stream of small jobs must not thundering-herd the whole pool awake;
  // workers re-check the queues before parking, so no job is stranded by
  // waking too few.
  void admit(const std::shared_ptr<Job>& job) {
    const std::size_t need = job->count;
    const bool pool_thread = t_pool_thread == this;
    std::size_t wakes = 0;
    {
      std::unique_lock lock(mu_);
      // A job bigger than the cap is admitted once the queue is otherwise
      // empty, so oversized submissions make progress instead of waiting
      // forever. A pool thread never blocks on its own engine's cap: a
      // worker submitting a continuation (sharded rank phases,
      // then-callbacks) must stay runnable or admission could deadlock the
      // pool. A stopping engine admits through too — its draining workers
      // run everything enqueued before join.
      cv_space_.wait(lock, [&] {
        const std::size_t cap = queue_cap_;
        return cap == 0 || pending_lanes_ + need <= cap ||
               (need > cap && pending_lanes_ == 0) || pool_thread || stop_;
      });
      spawn_workers_locked();
      queues_[class_index(job->priority)].push_back(job);
      pending_lanes_ += need;
      ++queued_jobs_;
      sched_version_.fetch_add(1, std::memory_order_release);
      wakes = std::min(num_threads_, (need + job->chunk - 1) / job->chunk);
    }
    for (std::size_t i = 0; i < wakes; ++i) cv_work_.notify_one();
    note_admitted(*job);
  }

  // The one submission path: validates the class, builds the job and
  // admits it. An empty submission is ready before anyone looks; a job
  // whose admission throws (no memory or thread for the pool) gives back
  // its in-flight count.
  BatchFuture submit(Clock::time_point submitted, std::size_t count,
                     const char* kind, ItemFn run,
                     const SubmitOptions& options, std::size_t chunk) {
    ftfft::detail::require(
        class_index(options.priority) < kNumPriorities,
        "BatchEngine: priority must be kHigh, kNormal or kLow");
    if (count == 0) {
      auto state = std::make_shared<detail::BatchShared>();
      state->ready.store(true, std::memory_order_release);
      return BatchFuture(std::move(state));
    }
    std::shared_ptr<Job> job = make_job(count, kind, std::move(run),
                                        options.priority, chunk, submitted);
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    try {
      admit(job);
    } catch (...) {
      inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    return BatchFuture(job->state);
  }

  [[nodiscard]] SchedulerStats snapshot_stats() const {
    SchedulerStats out;
    {
      std::scoped_lock lock(mu_);
      out.queue_cap = queue_cap_;
      out.pending_lanes = pending_lanes_;
    }
    std::scoped_lock lock(stats_mu_);
    for (std::size_t c = 0; c < kNumPriorities; ++c) {
      const ClassAccum& a = stats_[c];
      PriorityClassStats& s = out.classes[c];
      s.jobs_submitted = a.jobs_submitted;
      s.jobs_completed = a.jobs_completed;
      s.lanes_submitted = a.lanes_submitted;
      s.lanes_completed = a.lanes_completed;
      s.lanes_cancelled = a.lanes_cancelled;
      s.queue_wait = percentiles(a.wait_ring, a.wait_count, a.wait_max);
      s.run = percentiles(a.run_ring, a.run_count, a.run_max);
    }
    return out;
  }

  void reset_stats() {
    std::scoped_lock lock(stats_mu_);
    stats_.fill(ClassAccum{});
  }

  // Set on worker threads: their submissions never block on the admission
  // cap — a parked continuation would deadlock the pool.
  static thread_local Impl* t_pool_thread;

  const std::size_t num_threads_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> inflight_jobs_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // workers: queued work available
  std::condition_variable cv_space_;  // submitters: pending lanes freed
  std::array<std::deque<std::shared_ptr<Job>>, kNumPriorities> queues_;
  std::size_t queued_jobs_ = 0;   // jobs currently linked into queues_
  std::size_t pending_lanes_ = 0; // admitted, not yet finished
  std::size_t queue_cap_;         // 0 = unbounded
  bool stop_ = false;

  // Bumped by every enqueue; workers poll it between chunks (see
  // should_reschedule).
  std::atomic<std::uint64_t> sched_version_{0};

  mutable std::mutex stats_mu_;  // never nested inside mu_
  std::array<ClassAccum, kNumPriorities> stats_{};
};

thread_local BatchEngine::Impl* BatchEngine::Impl::t_pool_thread = nullptr;

BatchEngine::BatchEngine(std::size_t num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::num_threads() const noexcept {
  return impl_->num_threads_;
}

std::size_t BatchEngine::pending_jobs() const noexcept {
  return impl_->inflight_jobs_.load(std::memory_order_acquire);
}

std::size_t BatchEngine::queue_cap() const {
  std::scoped_lock lock(impl_->mu_);
  return impl_->queue_cap_;
}

void BatchEngine::set_queue_cap(std::size_t cap) {
  {
    std::scoped_lock lock(impl_->mu_);
    impl_->queue_cap_ = cap;
  }
  impl_->cv_space_.notify_all();
}

SchedulerStats BatchEngine::scheduler_stats() const {
  return impl_->snapshot_stats();
}

void BatchEngine::reset_scheduler_stats() { impl_->reset_stats(); }

BatchFuture BatchEngine::submit_batch(std::span<const Lane> lanes,
                                      std::size_t n,
                                      const BatchOptions& opts) {
  ftfft::detail::require(n >= 1, "BatchEngine: size must be >= 1");
  for (const Lane& lane : lanes) {
    ftfft::detail::require(lane.in != nullptr,
                           "BatchEngine: lane input must not be null");
  }
  // Injector::apply mutates armed-fault state; a single injector shared
  // by concurrently executing lanes would race. Per-lane injectors are
  // the supported way to fault a batch.
  ftfft::detail::require(
      opts.abft.injector == nullptr || lanes.size() <= 1 ||
          impl_->num_threads_ == 1,
      "BatchEngine: a batch-wide injector is not thread-safe; "
      "use per-lane Lane::injector instead");
  const auto submitted = Impl::Clock::now();
  // Resolve the ProtectionPlan(s) at submission time: on a warm cache
  // (see ftfft::warm_plans) this is a lock + hash lookup, so submission
  // cost is independent of n, and the shared_ptrs pin the plans however
  // long the job waits in the queue. A resolution failure (unsupported
  // size for the options) is parked and rethrown per lane, preserving the
  // report's failure isolation.
  std::shared_ptr<const abft::ProtectionPlan> plan, plan_inplace;
  std::exception_ptr plan_error, plan_inplace_error;
  bool need_oop = false;
  bool need_inplace = false;
  for (const Lane& lane : lanes) {
    (lane.out == nullptr ? need_inplace : need_oop) = true;
  }
  if (need_oop) {
    try {
      plan = abft::resolve_protection_plan(n, opts.abft, false);
    } catch (...) {
      plan_error = std::current_exception();
    }
  }
  if (need_inplace) {
    try {
      plan_inplace = abft::resolve_protection_plan(n, opts.abft, true);
    } catch (...) {
      plan_inplace_error = std::current_exception();
    }
  }
  auto run = [lanes = std::vector<Lane>(lanes.begin(), lanes.end()), n,
              base = opts.abft, preserve = opts.preserve_inputs, plan,
              plan_inplace, plan_error, plan_inplace_error](
                 std::size_t i, abft::Stats& stats) {
    const Lane& lane = lanes[i];
    abft::Options o = base;
    if (lane.injector != nullptr) o.injector = lane.injector;
    const bool inplace = lane.out == nullptr;
    if (inplace && plan_inplace_error) {
      std::rethrow_exception(plan_inplace_error);
    }
    if (!inplace && plan_error) std::rethrow_exception(plan_error);
    cplx* in = lane.in;
    scratch::Frame frame;  // nests in the worker's per-visit frame
    if (preserve || lane.out == lane.in) {
      const std::span<cplx> staged = frame.take<cplx>(n);
      std::copy(lane.in, lane.in + n, staged.begin());
      in = staged.data();
    }
    if (inplace) {
      abft::protected_transform_inplace(in, n, o, stats, plan_inplace.get());
      if (in != lane.in) std::copy(in, in + n, lane.in);
    } else {
      abft::protected_transform(in, lane.out, n, o, stats, plan.get());
    }
  };
  return impl_->submit(submitted, lanes.size(), "lane", std::move(run),
                       opts.submit, opts.chunk);
}

BatchFuture BatchEngine::submit_real_batch(std::span<const RealLane> lanes,
                                           std::size_t n, RealDirection dir,
                                           const BatchOptions& opts) {
  ftfft::detail::require(n >= 1, "BatchEngine: size must be >= 1");
  for (const RealLane& lane : lanes) {
    ftfft::detail::require(lane.re != nullptr && lane.spec != nullptr,
                           "BatchEngine: real lane buffers must not be null");
  }
  ftfft::detail::require(
      opts.abft.injector == nullptr || lanes.size() <= 1 ||
          impl_->num_threads_ == 1,
      "BatchEngine: a batch-wide injector is not thread-safe; "
      "use per-lane RealLane::injector instead");
  const auto submitted = Impl::Clock::now();
  // The three plans every lane shares, resolved once; a failure (n not a
  // power of two >= 2) surfaces per lane, like complex plan failures.
  std::shared_ptr<const fft::RealFftPlan> fft_plan;  // Mode::kNone
  std::shared_ptr<const abft::RealProtectionPlan> real_plan;
  std::shared_ptr<const abft::ProtectionPlan> cplan;  // packed n/2
  std::exception_ptr plan_error;
  if (!lanes.empty()) {
    try {
      if (opts.abft.mode == abft::Mode::kNone) {
        fft_plan = fft::RealFftPlan::get(n);
      } else {
        real_plan = abft::RealProtectionPlan::get(n);
        cplan = abft::resolve_real_packed_plan(n, opts.abft);
      }
    } catch (...) {
      plan_error = std::current_exception();
    }
  }
  // Real lanes never modify their source buffer (the protected paths work
  // out of internal scratch), so they never stage a copy.
  auto run = [lanes = std::vector<RealLane>(lanes.begin(), lanes.end()), n,
              dir, base = opts.abft, fft_plan, real_plan, cplan, plan_error](
                 std::size_t i, abft::Stats& stats) {
    const RealLane& lane = lanes[i];
    abft::Options o = base;
    if (lane.injector != nullptr) o.injector = lane.injector;
    if (plan_error) std::rethrow_exception(plan_error);
    if (o.mode == abft::Mode::kNone) {
      if (dir == RealDirection::kForward) {
        fft_plan->r2c(lane.re, lane.spec);
      } else {
        fft_plan->c2r(lane.spec, lane.re);
      }
    } else if (dir == RealDirection::kForward) {
      abft::protected_r2c(lane.re, lane.spec, n, o, stats, real_plan.get(),
                          cplan.get());
    } else {
      abft::protected_c2r(lane.spec, lane.re, n, o, stats, real_plan.get(),
                          cplan.get());
    }
  };
  return impl_->submit(submitted, lanes.size(), "lane", std::move(run),
                       opts.submit, opts.chunk);
}

BatchFuture BatchEngine::submit_tasks(
    std::size_t count, std::function<void(std::size_t, abft::Stats&)> fn,
    const SubmitOptions& submit, std::size_t chunk) {
  ftfft::detail::require(fn != nullptr,
                         "BatchEngine::submit_tasks: null callable");
  return impl_->submit(Impl::Clock::now(), count, "task", std::move(fn),
                       submit, chunk);
}

BatchEngine& BatchEngine::shared() {
  static BatchEngine instance;
  return instance;
}

}  // namespace ftfft::engine
