#include "engine/batch_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <list>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "abft/protected_fft.hpp"
#include "abft/protection_plan.hpp"
#include "abft/real_protection.hpp"
#include "common/aligned_buffer.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
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
  out.p90 = at(0.90);
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

  // Capacity/peak ratio beyond which an arena counts as oversized, and how
  // many consecutive oversized jobs it takes before the excess is
  // released. The patience keeps alternating big/small workloads from
  // reallocating every job.
  static constexpr std::size_t kTrimFactor = 4;
  static constexpr int kTrimPatience = 2;

  // Most recent latency samples kept per class for the percentile
  // snapshot; lifetime counts and maxima are tracked separately.
  static constexpr std::size_t kLatencyRingCap = 4096;

  // Sentinel for "no queued deadline" in next_deadline_ns_.
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  // Per-worker staging storage, reused across lanes and jobs.
  struct Arena {
    AlignedBuffer<cplx> staging;
    std::size_t batch_peak = 0;  // largest request in the current job
    int oversized_batches = 0;   // consecutive jobs far below capacity

    cplx* ensure(std::size_t n) {
      batch_peak = std::max(batch_peak, n);
      if (staging.size() < n) {
        staging = AlignedBuffer<cplx>(n);
        oversized_batches = 0;
      }
      return staging.data();
    }

    // High-water trim: a one-off huge job should not pin its staging
    // forever. After kTrimPatience consecutive jobs whose peak demand
    // stayed kTrimFactor below the arena's capacity, shrink to that peak.
    // Jobs that never touched this arena are not evidence of shrinking
    // demand (under-subscribed workloads rotate which workers win chunks);
    // they leave the counter untouched so participation gaps don't cause
    // free/realloc churn.
    void end_batch() {
      if (batch_peak == 0) return;
      if (!staging.empty() && batch_peak * kTrimFactor <= staging.size()) {
        if (++oversized_batches >= kTrimPatience) {
          staging = AlignedBuffer<cplx>(batch_peak);
          oversized_batches = 0;
        }
      } else {
        oversized_batches = 0;
      }
      batch_peak = 0;
    }
  };

  // Runs item `index` of a job: the transform of lane `index` for batch
  // submissions, the caller's callable for task fan-outs. Built once per
  // job at submission (plans resolved, lanes copied) and shared by every
  // worker draining the job; `stats` is the item's pre-sized
  // BatchReport::per_lane slot and `arena` the running worker's staging.
  using ItemFn =
      std::function<void(std::size_t index, abft::Stats& stats, Arena& arena)>;

  // One queued submission. Heap-owned and held in its class's queue list;
  // kept alive by shared_ptrs held by the queue, by every worker currently
  // draining it, and (through `state`) by the caller's
  // BatchFuture/BatchTicket. All non-atomic fields below the scheduling
  // block are written by the submitting thread before the job is published
  // under the queue mutex and never mutated afterwards; the queue/timing
  // block is guarded by mu_.
  struct Job {
    std::size_t count = 0;  // items; never mutated after publication
    const char* kind = "lane";  // "lane" | "task", for skip messages
    ItemFn run;                 // released by finish()
    std::shared_ptr<detail::BatchShared> state;

    // Scheduling state, resolved once by apply_submit before publication.
    Priority priority = Priority::kNormal;
    bool cancellable = false;
    bool has_deadline = false;
    Clock::time_point submit_time{};
    Clock::time_point deadline{};
    std::chrono::nanoseconds admission_timeout{-1};

    // Queue membership and first-claim timing, guarded by mu_.
    bool in_queue = false;
    std::list<std::shared_ptr<Job>>::iterator queue_pos{};
    bool started = false;
    Clock::time_point start_time{};

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> remaining{0};
    // Skip-path tallies: release increments in skip_item pair with the
    // acquire loads in finish().
    std::atomic<std::size_t> cancelled{0};
    std::atomic<std::size_t> shed_count{0};
    std::atomic<std::size_t> expired_count{0};
    // Set (under mu_) when admission picked this job as a shedding victim;
    // every not-yet-started item then fails via skip_item.
    std::atomic<bool> shed_flag{false};
    std::size_t chunk = 1;
  };

  // Lifetime scheduler counters + latency rings of one class, guarded by
  // stats_mu_. Lock order where both are needed: mu_ before stats_mu_
  // (in practice they are never nested — stats are recorded after mu_ is
  // released).
  struct ClassAccum {
    std::size_t jobs_submitted = 0;
    std::size_t jobs_completed = 0;
    std::size_t jobs_rejected = 0;
    std::size_t lanes_submitted = 0;
    std::size_t lanes_completed = 0;
    std::size_t lanes_cancelled = 0;
    std::size_t shed_lanes = 0;
    std::size_t deadline_expired_lanes = 0;
    std::vector<double> wait_ring, run_ring;
    std::size_t wait_next = 0, run_next = 0;
    std::size_t wait_count = 0, run_count = 0;
    double wait_max = 0.0, run_max = 0.0;
  };

  explicit Impl(std::size_t num_threads)
      : num_threads_(resolve_threads(num_threads)),
        arenas_(num_threads_),
        queue_cap_(env_size("FTFFT_ENGINE_QUEUE_CAP", 0)),
        default_priority_(resolve_default_priority()),
        default_deadline_(std::chrono::milliseconds(static_cast<std::int64_t>(
            env_size("FTFFT_ENGINE_DEFAULT_DEADLINE_MS", 0)))) {}

  static std::size_t resolve_threads(std::size_t requested) {
    if (requested != 0) return requested;
    const std::size_t from_env = env_size("FTFFT_ENGINE_THREADS", 0);
    if (from_env != 0) return from_env;
    return std::max(1u, std::thread::hardware_concurrency());
  }

  // FTFFT_ENGINE_DEFAULT_PRIORITY names the class a SubmitOptions with
  // Priority::kDefault resolves to. Read per engine construction (tests
  // build throwaway engines after setenv), invalid values warn once per
  // engine and fall back to normal — same spirit as env_size's validation.
  static Priority resolve_default_priority() {
    const char* raw = std::getenv("FTFFT_ENGINE_DEFAULT_PRIORITY");
    if (raw == nullptr || raw[0] == '\0') return Priority::kNormal;
    const std::string v(raw);
    if (v == "high") return Priority::kHigh;
    if (v == "normal") return Priority::kNormal;
    if (v == "low") return Priority::kLow;
    std::fprintf(stderr,
                 "ftfft: ignoring invalid FTFFT_ENGINE_DEFAULT_PRIORITY=\"%s\""
                 " (expected high|normal|low); using normal\n",
                 raw);
    return Priority::kNormal;
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
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  static std::size_t class_index(Priority p) noexcept {
    const int raw = static_cast<int>(p);
    if (raw < 0 || raw >= static_cast<int>(kNumPriorities)) {
      return static_cast<std::size_t>(Priority::kNormal);
    }
    return static_cast<std::size_t>(raw);
  }

  static std::int64_t to_ns(Clock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
        .count();
  }

  // Resolves the submission's scheduling knobs against the engine's env
  // defaults; runs on the submitting thread before the job is published.
  // `submitted` is when the submitting call started, so the deadline and
  // the queue wait include plan resolution.
  void apply_submit(Job& job, const SubmitOptions& submit,
                    Clock::time_point submitted) const {
    job.submit_time = submitted;
    Priority p = submit.priority == Priority::kDefault ? default_priority_
                                                       : submit.priority;
    job.priority = static_cast<Priority>(class_index(p));
    job.cancellable = submit.cancellable;
    job.admission_timeout = submit.admission_timeout;
    std::chrono::nanoseconds rel = submit.deadline;
    if (rel.count() == 0) rel = default_deadline_;  // 0 = inherit env default
    if (rel.count() > 0) {
      job.has_deadline = true;
      job.deadline = job.submit_time + rel;
    }
  }

  void worker_loop(std::size_t arena_index) {
    t_pool_thread = this;
    Arena& arena = arenas_[arena_index];
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || queued_jobs_ > 0; });
        if (queued_jobs_ == 0) return;  // stop_ set and queues drained
        job = pick_locked();
        if (job == nullptr) continue;
      }
      work_on(*job, arena, /*preemptible=*/true);
    }
  }

  void note_started_locked(Job& job, Clock::time_point now) {
    if (!job.started) {
      job.started = true;
      job.start_time = now;
    }
  }

  // Chooses the job workers should claim from next: an expired class front
  // anywhere beats live work (draining it is near-free skips and releases
  // its pending-lane slots immediately); otherwise the highest-priority
  // non-empty class front. Within a class the front is the EDF minimum —
  // deadlined jobs sit sorted ahead of the deadline-free FIFO tail — so if
  // a class front is not expired, nothing behind it in that class is.
  std::shared_ptr<Job> pick_locked() {
    const auto now = Clock::now();
    std::shared_ptr<Job> first;
    for (auto& q : queues_) {
      if (q.empty()) continue;
      const std::shared_ptr<Job>& front = q.front();
      if (front->has_deadline && now >= front->deadline) {
        note_started_locked(*front, now);
        return front;
      }
      if (first == nullptr) first = front;
    }
    if (first != nullptr) note_started_locked(*first, now);
    return first;
  }

  // True when a worker between chunks should return to the scheduler: new
  // work arrived (sched_version_ bumped by every enqueue) or a queued
  // deadline passed. Cancelled/shed/expired jobs are exempt — their
  // remaining items are near-free skips, and finishing the sweep is what
  // frees queue capacity and fulfills the future fastest.
  [[nodiscard]] bool should_reschedule(const Job& job,
                                       std::uint64_t seen) const {
    if (job.state->cancel.load(std::memory_order_relaxed) ||
        job.shed_flag.load(std::memory_order_relaxed)) {
      return false;
    }
    if (job.has_deadline && Clock::now() >= job.deadline) return false;
    if (sched_version_.load(std::memory_order_acquire) != seen) return true;
    const std::int64_t next =
        next_deadline_ns_.load(std::memory_order_relaxed);
    return next != kNoDeadline && to_ns(Clock::now()) >= next;
  }

  // Claims chunks of the job's items until its cursor is exhausted — or,
  // when preemptible, until the scheduler has something more urgent — then
  // retires an exhausted job from its class queue (so workers move on
  // while stragglers finish this one) and, if this worker ran the job's
  // final item, fulfills its future. preemptible=false on the shed-drain
  // path, which must complete in one call.
  void work_on(Job& job, Arena& arena, bool preemptible) {
    const std::size_t count = job.count;
    const std::uint64_t seen = sched_version_.load(std::memory_order_acquire);
    std::size_t done = 0;
    bool exhausted = false;
    for (;;) {
      const std::size_t begin =
          job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
      if (begin >= count) {
        exhausted = true;
        break;
      }
      const std::size_t end = std::min(begin + job.chunk, count);
      for (std::size_t i = begin; i < end; ++i) run_item(job, i, arena);
      done += end - begin;
      if (preemptible && should_reschedule(job, seen)) break;
    }
    if (exhausted) retire_from_queue(job);
    // Trim bookkeeping happens before this worker's lanes are subtracted
    // from `remaining`, so a ready future implies no worker still touches
    // an arena on this job's behalf (staging_capacity() stays readable
    // from the caller once the engine is idle).
    arena.end_batch();
    if (done > 0 &&
        job.remaining.fetch_sub(done, std::memory_order_acq_rel) == done) {
      finish(job);
    }
  }

  // Removes an exhausted job from its class queue. Idempotent: several
  // workers can exhaust the cursor concurrently and each call this.
  void retire_from_queue(Job& job) {
    std::scoped_lock lock(mu_);
    if (!job.in_queue) return;
    queues_[class_index(job.priority)].erase(job.queue_pos);
    job.in_queue = false;
    --queued_jobs_;
    refresh_next_deadline_locked();
  }

  // Checks, in taxonomy order, whether this item must fail fast instead of
  // executing: ticket cancellation, overload shedding, deadline expiry.
  // Items already executing are never touched — this runs before the item
  // starts. The messages name the job's kind, "lane" or "task" (they are
  // part of the report contract).
  bool skip_item(Job& job, std::size_t index) {
    const char* kind = job.kind;
    BatchReport& report = job.state->report;
    if (job.state->cancel.load(std::memory_order_relaxed)) {
      report.errors[index] = std::string(kind) + " cancelled before execution";
      report.exceptions[index] = std::make_exception_ptr(CancelledError(
          std::string("BatchEngine: ") + kind + " cancelled before execution"));
      // Release pairs with the acquire load in finish(): the finishing
      // worker must observe every increment (and the error slots written
      // above) without leaning on the release sequence of `remaining`.
      job.cancelled.fetch_add(1, std::memory_order_release);
      return true;
    }
    if (job.shed_flag.load(std::memory_order_acquire)) {
      report.errors[index] =
          std::string(kind) + " shed under overload (queue full)";
      report.exceptions[index] = std::make_exception_ptr(
          CancelledError(std::string("BatchEngine: cancellable ") + kind +
                         " shed under overload (queue full)"));
      job.shed_count.fetch_add(1, std::memory_order_release);
      return true;
    }
    if (job.has_deadline && Clock::now() >= job.deadline) {
      report.errors[index] =
          std::string(kind) + " deadline exceeded before execution";
      report.exceptions[index] = std::make_exception_ptr(DeadlineExceededError(
          std::string("BatchEngine: ") + kind +
          " deadline exceeded before execution"));
      job.expired_count.fetch_add(1, std::memory_order_release);
      return true;
    }
    return false;
  }

  // One item of any job kind: fail fast through skip_item, otherwise run
  // it and record a throw in the item's report slots without disturbing
  // the other items.
  void run_item(Job& job, std::size_t index, Arena& arena) {
    if (skip_item(job, index)) return;
    BatchReport& report = job.state->report;
    try {
      job.run(index, report.per_lane[index], arena);
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
  // report slots are quiescent. The first-claim timing is read back under
  // mu_ because a worker may set it concurrently with a shed-drain finish.
  void finish(Job& job) {
    detail::BatchShared& state = *job.state;
    const auto fin = Clock::now();
    bool started = false;
    Clock::time_point start_time{};
    {
      std::scoped_lock lock(mu_);
      started = job.started;
      start_time = job.start_time;
      pending_lanes_ -= job.count;
    }
    cv_space_.notify_all();
    double wait_s = 0.0;
    double run_s = 0.0;
    try {
      BatchReport& report = state.report;
      // Acquire pairs with the release increments in skip_item.
      report.cancelled_lanes = job.cancelled.load(std::memory_order_acquire);
      report.shed_lanes = job.shed_count.load(std::memory_order_acquire);
      report.deadline_expired_lanes =
          job.expired_count.load(std::memory_order_acquire);
      report.priority = job.priority;
      wait_s = secs((started ? start_time : fin) - job.submit_time);
      run_s = started ? secs(fin - start_time) : 0.0;
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
    record_completion(job, state.report, wait_s, run_s, started);
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

  void note_rejected(const Job& job) {
    std::scoped_lock lock(stats_mu_);
    ++stats_[class_index(job.priority)].jobs_rejected;
  }

  void record_completion(const Job& job, const BatchReport& report,
                         double wait_s, double run_s, bool started) {
    std::scoped_lock lock(stats_mu_);
    ClassAccum& c = stats_[class_index(job.priority)];
    ++c.jobs_completed;
    const std::size_t skipped = report.cancelled_lanes + report.shed_lanes +
                                report.deadline_expired_lanes;
    const std::size_t items = job.count;
    c.lanes_completed += items > skipped ? items - skipped : 0;
    c.lanes_cancelled += report.cancelled_lanes;
    c.shed_lanes += report.shed_lanes;
    c.deadline_expired_lanes += report.deadline_expired_lanes;
    push_sample(c.wait_ring, c.wait_next, c.wait_count, c.wait_max, wait_s);
    if (started) {
      push_sample(c.run_ring, c.run_next, c.run_count, c.run_max, run_s);
    }
  }

  // The one job builder: item count, kind, item closure and resolved
  // scheduling knobs. `count` >= 1 (empty submissions never build a job).
  std::shared_ptr<Job> make_job(std::size_t count, const char* kind,
                                ItemFn run, const SubmitOptions& submit,
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
    job->remaining.store(count, std::memory_order_relaxed);
    job->chunk = pick_chunk(count, num_threads_, chunk);
    apply_submit(*job, submit, submitted);
    return job;
  }

  // Inserts a made job into its class queue in EDF position: deadlined
  // jobs sorted ascending by deadline ahead of the deadline-free FIFO
  // tail. Bumps sched_version_ so workers between chunks re-consult the
  // scheduler, and refreshes the earliest-queued-deadline hint.
  void enqueue_locked(const std::shared_ptr<Job>& job) {
    spawn_workers_locked();
    auto& q = queues_[class_index(job->priority)];
    auto pos = q.end();
    if (job->has_deadline) {
      pos = q.begin();
      while (pos != q.end() && (*pos)->has_deadline &&
             (*pos)->deadline <= job->deadline) {
        ++pos;
      }
    }
    job->queue_pos = q.insert(pos, job);
    job->in_queue = true;
    ++queued_jobs_;
    sched_version_.fetch_add(1, std::memory_order_release);
    refresh_next_deadline_locked();
  }

  // Earliest deadline among the class fronts (the EDF ordering makes each
  // front its class's minimum) — the cheap hint workers poll between
  // chunks so an expiring queued job gets drained promptly.
  void refresh_next_deadline_locked() {
    std::int64_t next = kNoDeadline;
    for (const auto& q : queues_) {
      if (!q.empty() && q.front()->has_deadline) {
        next = std::min(next, to_ns(q.front()->deadline));
      }
    }
    next_deadline_ns_.store(next, std::memory_order_relaxed);
  }

  // Picks (and flags) the queued job admission should shed to make room
  // for a submission of class `incoming`: cancellable jobs of a class
  // strictly below it, lowest class first, newest first within a class —
  // the least valuable queued work goes first, and equal-class work is
  // never shed. Returns null when nothing is sheddable.
  std::shared_ptr<Job> pop_shed_victim_locked(Priority incoming) {
    const int inc = static_cast<int>(class_index(incoming));
    for (int c = static_cast<int>(kNumPriorities) - 1; c > inc; --c) {
      auto& q = queues_[static_cast<std::size_t>(c)];
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        Job& cand = **it;
        if (!cand.cancellable) continue;
        if (cand.shed_flag.load(std::memory_order_relaxed)) continue;
        cand.shed_flag.store(true, std::memory_order_release);
        return *it;
      }
    }
    return nullptr;
  }

  // Runs the shed victim's remaining items on the shedding thread — every
  // claim lands in skip_item (shed_flag is set), so this is a fast
  // bookkeeping sweep that frees the victim's pending-lane slots and
  // fulfills its future without waiting for a worker. Items a worker
  // claimed before the flag was set still run to completion (only
  // not-yet-started lanes are shed).
  void drain_shed(Job& job) {
    Impl* prev = t_pool_thread;
    t_pool_thread = this;  // callbacks run here may re-submit; never block
    Arena scratch;         // untouched: skipped items never stage
    work_on(job, scratch, /*preemptible=*/false);
    t_pool_thread = prev;
  }

  // Admission control: accounts the job's items against the pending-lane
  // cap, shedding lower-class cancellable queued work to make room, then
  // waiting for space up to the admission timeout. On success the job is
  // queued in EDF position and workers are woken (only as many as it has
  // chunks — a stream of small jobs must not thundering-herd the whole
  // pool awake; workers re-check the queues before parking, so no job is
  // stranded by waking too few). Throws QueueFullError when the timeout
  // elapses (at once for a zero timeout) with the queue still full.
  void admit(const std::shared_ptr<Job>& job) {
    const std::size_t need = job->count;
    const bool pool_thread = t_pool_thread == this;
    std::size_t wakes = 0;
    {
      std::unique_lock lock(mu_);
      const std::chrono::nanoseconds timeout = job->admission_timeout;
      Clock::time_point wait_deadline{};
      if (timeout.count() > 0) {
        wait_deadline = Clock::now() + timeout;
      }
      for (;;) {
        const std::size_t cap = queue_cap_;
        // A job bigger than the cap is admitted once the queue is
        // otherwise empty, so oversized submissions make progress instead
        // of waiting forever.
        if (cap == 0 || pending_lanes_ + need <= cap ||
            (need > cap && pending_lanes_ == 0)) {
          break;
        }
        // Never block a pool thread on its own engine's cap: a worker
        // submitting a continuation (sharded rank phases, then-callbacks)
        // must stay runnable or admission could deadlock the pool. A
        // stopping engine admits through too — its draining workers run
        // everything enqueued before join.
        if (pool_thread || stop_) break;
        if (std::shared_ptr<Job> victim =
                pop_shed_victim_locked(job->priority)) {
          lock.unlock();
          drain_shed(*victim);
          lock.lock();
          continue;
        }
        if (timeout.count() == 0 ||
            (timeout.count() > 0 && Clock::now() >= wait_deadline)) {
          const std::size_t pending = pending_lanes_;
          lock.unlock();
          note_rejected(*job);
          throw QueueFullError(
              "BatchEngine: pending-lane queue cap reached (cap " +
              std::to_string(cap) + ", pending " + std::to_string(pending) +
              ", requested " + std::to_string(need) + ")");
        }
        if (timeout.count() > 0) {
          cv_space_.wait_until(lock, wait_deadline);
        } else {
          cv_space_.wait(lock);
        }
      }
      pending_lanes_ += need;
      enqueue_locked(job);
      wakes = std::min(num_threads_, (need + job->chunk - 1) / job->chunk);
    }
    for (std::size_t i = 0; i < wakes; ++i) cv_work_.notify_one();
    note_admitted(*job);
  }

  // The one submission path: builds the job and admits it. An empty
  // submission is ready before anyone looks; a rejected job gives back its
  // in-flight count.
  BatchFuture submit(Clock::time_point submitted, std::size_t count,
                     const char* kind, ItemFn run,
                     const SubmitOptions& options, std::size_t chunk) {
    if (count == 0) {
      auto state = std::make_shared<detail::BatchShared>();
      state->ready.store(true, std::memory_order_release);
      return BatchFuture(std::move(state));
    }
    std::shared_ptr<Job> job =
        make_job(count, kind, std::move(run), options, chunk, submitted);
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    try {
      admit(job);
    } catch (...) {
      inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    return BatchFuture(job->state);
  }

  [[nodiscard]] std::size_t staging_capacity() const {
    std::size_t total = 0;
    for (const Arena& arena : arenas_) total += arena.staging.size();
    return total;
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
      s.jobs_rejected = a.jobs_rejected;
      s.lanes_submitted = a.lanes_submitted;
      s.lanes_completed = a.lanes_completed;
      s.lanes_cancelled = a.lanes_cancelled;
      s.shed_lanes = a.shed_lanes;
      s.deadline_expired_lanes = a.deadline_expired_lanes;
      s.queue_wait = percentiles(a.wait_ring, a.wait_count, a.wait_max);
      s.run = percentiles(a.run_ring, a.run_count, a.run_max);
    }
    return out;
  }

  void reset_stats() {
    std::scoped_lock lock(stats_mu_);
    stats_.fill(ClassAccum{});
  }

  // Set while a thread is executing engine work (worker loops and the
  // shed-drain sweep): submissions from such threads never block on the
  // admission cap — a parked continuation would deadlock the pool.
  static thread_local Impl* t_pool_thread;

  const std::size_t num_threads_;
  std::vector<Arena> arenas_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> inflight_jobs_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // workers: queued work available
  std::condition_variable cv_space_;  // submitters: pending lanes freed
  std::array<std::list<std::shared_ptr<Job>>, kNumPriorities> queues_;
  std::size_t queued_jobs_ = 0;   // jobs currently linked into queues_
  std::size_t pending_lanes_ = 0; // admitted, not yet finished
  std::size_t queue_cap_;         // 0 = unbounded
  bool stop_ = false;

  // Lock-free hints workers poll between chunks (see should_reschedule).
  std::atomic<std::uint64_t> sched_version_{0};
  std::atomic<std::int64_t> next_deadline_ns_{kNoDeadline};

  const Priority default_priority_;
  const std::chrono::nanoseconds default_deadline_;  // 0 = none

  mutable std::mutex stats_mu_;  // ordered after mu_; never nested inside it
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

std::size_t BatchEngine::staging_capacity() const {
  return impl_->staging_capacity();
}

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
                 std::size_t i, abft::Stats& stats, Impl::Arena& arena) {
    const Lane& lane = lanes[i];
    abft::Options o = base;
    if (lane.injector != nullptr) o.injector = lane.injector;
    const bool inplace = lane.out == nullptr;
    if (inplace && plan_inplace_error) {
      std::rethrow_exception(plan_inplace_error);
    }
    if (!inplace && plan_error) std::rethrow_exception(plan_error);
    cplx* in = lane.in;
    if (preserve || lane.out == lane.in) {
      cplx* staged = arena.ensure(n);
      std::copy(lane.in, lane.in + n, staged);
      in = staged;
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
  // out of internal scratch), so they never stage through the arena.
  auto run = [lanes = std::vector<RealLane>(lanes.begin(), lanes.end()), n,
              dir, base = opts.abft, fft_plan, real_plan, cplan, plan_error](
                 std::size_t i, abft::Stats& stats, Impl::Arena&) {
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
  auto run = [fn = std::move(fn)](std::size_t i, abft::Stats& stats,
                                  Impl::Arena&) { fn(i, stats); };
  return impl_->submit(Impl::Clock::now(), count, "task", std::move(run),
                       submit, chunk);
}

BatchEngine& BatchEngine::shared() {
  static BatchEngine instance;
  return instance;
}

SchedulerStats scheduler_stats() {
  return BatchEngine::shared().scheduler_stats();
}

}  // namespace ftfft::engine
