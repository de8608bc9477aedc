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

// Expands the contiguous batch layout (lane L at in + L*n / out + L*n)
// into lane descriptors; out == nullptr means every lane is in place.
std::vector<Lane> pack_lanes(cplx* in, cplx* out, std::size_t n,
                             std::size_t count) {
  ftfft::detail::require(in != nullptr,
                         "BatchEngine: batch input must not be null");
  std::vector<Lane> lanes(count);
  for (std::size_t i = 0; i < count; ++i) {
    lanes[i].in = in + i * n;
    lanes[i].out = out == nullptr ? nullptr : out + i * n;
  }
  return lanes;
}

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

  // One queued submission. Heap-owned and held in its class's queue list;
  // kept alive by shared_ptrs held by the queue, by every worker currently
  // draining it, and (through `state`) by the caller's
  // BatchFuture/BatchTicket. All non-atomic fields below the scheduling
  // block are written by the submitting thread before the job is published
  // under the queue mutex and never mutated afterwards; the queue/timing
  // block is guarded by mu_.
  struct Job {
    std::vector<Lane> lanes;
    std::size_t n = 0;
    BatchOptions opts;
    // Protection plans resolved once at submission and shared by every
    // lane (rA generation and threshold derivation drop from O(lanes * n)
    // to O(n) per batch); the shared_ptrs pin them however long the job
    // waits in the queue, even if the LRU cache evicts them. Resolution
    // failures are parked as exception_ptrs so they surface per lane,
    // preserving the report's failure isolation.
    std::shared_ptr<const abft::ProtectionPlan> plan;          // out-of-place
    std::shared_ptr<const abft::ProtectionPlan> plan_inplace;  // in-place
    std::exception_ptr plan_error;
    std::exception_ptr plan_inplace_error;
    std::shared_ptr<detail::BatchShared> state;
    // Real-lane job (submit_real_batch): when `real_lanes` is non-empty,
    // `lanes` stays empty and the items run through run_real_lane with the
    // plans below — same claiming, cancellation and failure isolation.
    std::vector<RealLane> real_lanes;
    RealDirection real_dir = RealDirection::kForward;
    std::shared_ptr<const fft::RealFftPlan> real_fft_plan;  // Mode::kNone
    std::shared_ptr<const abft::RealProtectionPlan> real_plan;
    std::shared_ptr<const abft::ProtectionPlan> real_cplan;  // packed n/2
    std::exception_ptr real_plan_error;
    // Generic task job (submit_tasks): when `task` is set, `lanes` stays
    // empty and `task_count` work items run through it instead of
    // run_lane — same cursor/chunk claiming, same cancellation, same
    // per-item failure isolation.
    std::function<void(std::size_t, abft::Stats&)> task;
    std::size_t task_count = 0;

    // Scheduling state, resolved once by apply_submit before publication.
    Priority priority = Priority::kNormal;
    bool cancellable = false;
    bool has_deadline = false;
    Clock::time_point submit_time{};
    Clock::time_point deadline{};
    std::chrono::nanoseconds admission_timeout{-1};

    // Queue membership and first-claim timing, guarded by mu_. `enqueued`
    // and `counted_pending` are written before the job becomes visible to
    // other threads (still under mu_) and are stable afterwards, so
    // work_on/finish may read them without the lock.
    bool enqueued = false;
    bool counted_pending = false;
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

    // Reads only pre-publication fields (task_count is non-zero exactly
    // for task jobs and never mutated), so it stays safe after finish()
    // has released the task closure.
    [[nodiscard]] std::size_t item_count() const noexcept {
      if (task_count > 0) return task_count;
      return real_lanes.empty() ? lanes.size() : real_lanes.size();
    }
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
  void apply_submit(Job& job, const SubmitOptions& submit) const {
    job.submit_time = Clock::now();
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
  // final item, fulfills its future. preemptible=false on the inline
  // run_sync and shed-drain paths, which must complete in one call.
  void work_on(Job& job, Arena& arena, bool preemptible) {
    const std::size_t count = job.item_count();
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
      for (std::size_t i = begin; i < end; ++i) {
        if (job.task) {
          run_task(job, i);
        } else if (!job.real_lanes.empty()) {
          run_real_lane(job, i);
        } else {
          run_lane(job, i, arena);
        }
      }
      done += end - begin;
      if (preemptible && should_reschedule(job, seen)) break;
    }
    if (exhausted && job.enqueued) retire_from_queue(job);
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
  // starts. `kind` is "lane" or "task" (the messages are part of the
  // report contract).
  bool skip_item(Job& job, std::size_t index, const char* kind) {
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

  // One generic work item: the cancellation and failure-isolation contract
  // of run_lane, minus staging and plan state (the callable brings its own).
  void run_task(Job& job, std::size_t index) {
    if (skip_item(job, index, "task")) return;
    BatchReport& report = job.state->report;
    try {
      job.task(index, report.per_lane[index]);
    } catch (const std::exception& e) {
      report.errors[index] = e.what();
      report.exceptions[index] = std::current_exception();
    } catch (...) {
      report.errors[index] = "unknown exception";
      report.exceptions[index] = std::current_exception();
    }
  }

  void run_lane(Job& job, std::size_t index, Arena& arena) {
    if (skip_item(job, index, "lane")) return;
    BatchReport& report = job.state->report;
    const Lane& lane = job.lanes[index];
    const std::size_t n = job.n;
    abft::Options opts = job.opts.abft;
    if (lane.injector != nullptr) opts.injector = lane.injector;
    try {
      const bool inplace = lane.out == nullptr;
      if (inplace && job.plan_inplace_error) {
        std::rethrow_exception(job.plan_inplace_error);
      }
      if (!inplace && job.plan_error) std::rethrow_exception(job.plan_error);
      cplx* in = lane.in;
      if (job.opts.preserve_inputs || lane.out == lane.in) {
        cplx* staged = arena.ensure(n);
        std::copy(lane.in, lane.in + n, staged);
        in = staged;
      }
      abft::Stats& stats = report.per_lane[index];
      if (inplace) {
        abft::protected_transform_inplace(in, n, opts, stats,
                                          job.plan_inplace.get());
        if (in != lane.in) std::copy(in, in + n, lane.in);
      } else {
        abft::protected_transform(in, lane.out, n, opts, stats,
                                  job.plan.get());
      }
    } catch (const std::exception& e) {
      report.errors[index] = e.what();
      report.exceptions[index] = std::current_exception();
    } catch (...) {
      report.errors[index] = "unknown exception";
      report.exceptions[index] = std::current_exception();
    }
  }

  // One real lane: run_lane's cancellation and failure-isolation contract
  // without staging (real lanes never modify their source buffer — the
  // protected paths work out of internal scratch).
  void run_real_lane(Job& job, std::size_t index) {
    if (skip_item(job, index, "lane")) return;
    BatchReport& report = job.state->report;
    const RealLane& lane = job.real_lanes[index];
    abft::Options opts = job.opts.abft;
    if (lane.injector != nullptr) opts.injector = lane.injector;
    try {
      if (job.real_plan_error) std::rethrow_exception(job.real_plan_error);
      abft::Stats& stats = report.per_lane[index];
      if (opts.mode == abft::Mode::kNone) {
        if (job.real_dir == RealDirection::kForward) {
          job.real_fft_plan->r2c(lane.re, lane.spec);
        } else {
          job.real_fft_plan->c2r(lane.spec, lane.re);
        }
      } else if (job.real_dir == RealDirection::kForward) {
        abft::protected_r2c(lane.re, lane.spec, job.n, opts, stats,
                            job.real_plan.get(), job.real_cplan.get());
      } else {
        abft::protected_c2r(lane.spec, lane.re, job.n, opts, stats,
                            job.real_plan.get(), job.real_cplan.get());
      }
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
      if (job.counted_pending) pending_lanes_ -= job.item_count();
    }
    if (job.counted_pending) cv_space_.notify_all();
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
    // Destroy the task closure before publishing completion: closures own
    // caller state (the sharded FFT's phase chain keeps its shared state
    // alive through this function), and a waiter may tear the world down
    // the instant the future reads ready — releasing the closure only when
    // the worker later drops its shared_ptr<Job> would run those
    // destructors concurrently with whatever follows the wait. All items
    // are retired once finish runs (remaining hit zero), so no other
    // worker can still touch the callable.
    job.task = nullptr;
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
    c.lanes_submitted += job.item_count();
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
    const std::size_t items = job.item_count();
    c.lanes_completed += items > skipped ? items - skipped : 0;
    c.lanes_cancelled += report.cancelled_lanes;
    c.shed_lanes += report.shed_lanes;
    c.deadline_expired_lanes += report.deadline_expired_lanes;
    push_sample(c.wait_ring, c.wait_next, c.wait_count, c.wait_max, wait_s);
    if (started) {
      push_sample(c.run_ring, c.run_next, c.run_count, c.run_max, run_s);
    }
  }

  struct MadeJob {
    std::shared_ptr<Job> job;  // null for an empty batch (already ready)
    std::shared_ptr<detail::BatchShared> state;
  };

  // Validation, report sizing, lane copy and plan resolution — everything a
  // submission needs short of choosing where it executes (queue or inline).
  MadeJob make_job(std::span<const Lane> lanes, std::size_t n,
                   const BatchOptions& opts) {
    ftfft::detail::require(n >= 1, "BatchEngine: size must be >= 1");
    for (const Lane& lane : lanes) {
      ftfft::detail::require(lane.in != nullptr,
                      "BatchEngine: lane input must not be null");
    }
    // Injector::apply mutates armed-fault state; a single injector shared
    // by concurrently executing lanes would race. Per-lane injectors are
    // the supported way to fault a batch.
    ftfft::detail::require(opts.abft.injector == nullptr || lanes.size() <= 1 ||
                        num_threads_ == 1,
                    "BatchEngine: a batch-wide injector is not thread-safe; "
                    "use per-lane Lane::injector instead");

    auto state = std::make_shared<detail::BatchShared>();
    BatchReport& report = state->report;
    report.lanes = lanes.size();
    report.per_lane.resize(lanes.size());
    report.errors.resize(lanes.size());
    report.exceptions.resize(lanes.size());
    if (lanes.empty()) {
      // Nothing to run; ready before anyone looks.
      state->ready.store(true, std::memory_order_release);
      return {nullptr, std::move(state)};
    }

    auto job = std::make_shared<Job>();
    job->lanes.assign(lanes.begin(), lanes.end());
    job->n = n;
    job->opts = opts;
    job->state = state;
    job->remaining.store(lanes.size(), std::memory_order_relaxed);
    job->chunk = pick_chunk(lanes.size(), num_threads_, opts.chunk);
    apply_submit(*job, opts.submit);

    // Resolve the ProtectionPlan(s) at submission time: on a warm cache
    // (see ftfft::warm_plans) this is a lock + hash lookup, so submission
    // cost is independent of n. A resolution failure (unsupported size for
    // the options) is reported per lane, matching the old per-lane throw.
    bool need_oop = false;
    bool need_inplace = false;
    for (const Lane& lane : lanes) {
      (lane.out == nullptr ? need_inplace : need_oop) = true;
    }
    if (need_oop) {
      try {
        job->plan = abft::resolve_protection_plan(n, opts.abft, false);
      } catch (...) {
        job->plan_error = std::current_exception();
      }
    }
    if (need_inplace) {
      try {
        job->plan_inplace = abft::resolve_protection_plan(n, opts.abft, true);
      } catch (...) {
        job->plan_inplace_error = std::current_exception();
      }
    }

    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(job), std::move(state)};
  }

  // Real-lane analogue of make_job: validation, report sizing, lane copy
  // and one-time resolution of the three plans every lane shares. A
  // resolution failure (n not a power of two >= 2) is parked and surfaces
  // per lane, like complex plan failures.
  MadeJob make_real_job(std::span<const RealLane> lanes, std::size_t n,
                        RealDirection dir, const BatchOptions& opts) {
    ftfft::detail::require(n >= 1, "BatchEngine: size must be >= 1");
    for (const RealLane& lane : lanes) {
      ftfft::detail::require(lane.re != nullptr && lane.spec != nullptr,
                             "BatchEngine: real lane buffers must not be null");
    }
    ftfft::detail::require(
        opts.abft.injector == nullptr || lanes.size() <= 1 ||
            num_threads_ == 1,
        "BatchEngine: a batch-wide injector is not thread-safe; "
        "use per-lane RealLane::injector instead");

    auto state = std::make_shared<detail::BatchShared>();
    BatchReport& report = state->report;
    report.lanes = lanes.size();
    report.per_lane.resize(lanes.size());
    report.errors.resize(lanes.size());
    report.exceptions.resize(lanes.size());
    if (lanes.empty()) {
      state->ready.store(true, std::memory_order_release);
      return {nullptr, std::move(state)};
    }

    auto job = std::make_shared<Job>();
    job->real_lanes.assign(lanes.begin(), lanes.end());
    job->real_dir = dir;
    job->n = n;
    job->opts = opts;
    job->state = state;
    job->remaining.store(lanes.size(), std::memory_order_relaxed);
    job->chunk = pick_chunk(lanes.size(), num_threads_, opts.chunk);
    apply_submit(*job, opts.submit);
    try {
      if (opts.abft.mode == abft::Mode::kNone) {
        job->real_fft_plan = fft::RealFftPlan::get(n);
      } else {
        job->real_plan = abft::RealProtectionPlan::get(n);
        job->real_cplan = abft::resolve_real_packed_plan(n, opts.abft);
      }
    } catch (...) {
      job->real_plan_error = std::current_exception();
    }

    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(job), std::move(state)};
  }

  // Task-job analogue of make_job.
  MadeJob make_task_job(std::size_t count,
                        std::function<void(std::size_t, abft::Stats&)> fn,
                        const SubmitOptions& submit, std::size_t chunk) {
    ftfft::detail::require(fn != nullptr,
                           "BatchEngine::submit_tasks: null callable");
    auto state = std::make_shared<detail::BatchShared>();
    BatchReport& report = state->report;
    report.lanes = count;
    report.per_lane.resize(count);
    report.errors.resize(count);
    report.exceptions.resize(count);
    if (count == 0) {
      state->ready.store(true, std::memory_order_release);
      return {nullptr, std::move(state)};
    }
    auto job = std::make_shared<Job>();
    job->task = std::move(fn);
    job->task_count = count;
    job->state = state;
    job->remaining.store(count, std::memory_order_relaxed);
    job->chunk = pick_chunk(count, num_threads_, chunk);
    apply_submit(*job, submit);
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(job), std::move(state)};
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
    job->enqueued = true;
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
  // cap, shedding lower-class cancellable queued work to make room, and —
  // for blocking submits — waiting for space up to the admission timeout.
  // On success the job is queued in EDF position and workers are woken
  // (only as many as it has chunks — a stream of small jobs must not
  // thundering-herd the whole pool awake; workers re-check the queues
  // before parking, so no job is stranded by waking too few). Returns
  // false when a non-blocking admission finds no room; throws
  // QueueFullError when a blocking admission times out.
  bool admit(const std::shared_ptr<Job>& job, bool blocking) {
    const std::size_t need = job->item_count();
    const bool pool_thread = t_pool_thread == this;
    std::size_t wakes = 0;
    {
      std::unique_lock lock(mu_);
      const std::chrono::nanoseconds timeout = job->admission_timeout;
      Clock::time_point wait_deadline{};
      if (blocking && timeout.count() > 0) {
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
        if (!blocking) {
          lock.unlock();
          note_rejected(*job);
          return false;
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
      job->counted_pending = true;
      enqueue_locked(job);
      wakes = std::min(num_threads_, (need + job->chunk - 1) / job->chunk);
    }
    for (std::size_t i = 0; i < wakes; ++i) cv_work_.notify_one();
    note_admitted(*job);
    return true;
  }

  // Shared admission epilogue: a rejected job must give back its
  // inflight-jobs count (make_* charged it optimistically).
  bool queue_job(const std::shared_ptr<Job>& job, bool blocking) {
    try {
      if (!admit(job, blocking)) {
        inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
        return false;
      }
    } catch (...) {
      inflight_jobs_.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    return true;
  }

  BatchFuture submit(std::span<const Lane> lanes, std::size_t n,
                     const BatchOptions& opts) {
    MadeJob made = make_job(lanes, n, opts);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    queue_job(made.job, /*blocking=*/true);
    return BatchFuture(std::move(made.state));
  }

  std::optional<BatchFuture> try_submit(std::span<const Lane> lanes,
                                        std::size_t n,
                                        const BatchOptions& opts) {
    MadeJob made = make_job(lanes, n, opts);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    if (!queue_job(made.job, /*blocking=*/false)) return std::nullopt;
    return BatchFuture(std::move(made.state));
  }

  BatchFuture submit_real(std::span<const RealLane> lanes, std::size_t n,
                          RealDirection dir, const BatchOptions& opts) {
    MadeJob made = make_real_job(lanes, n, dir, opts);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    queue_job(made.job, /*blocking=*/true);
    return BatchFuture(std::move(made.state));
  }

  std::optional<BatchFuture> try_submit_real(std::span<const RealLane> lanes,
                                             std::size_t n, RealDirection dir,
                                             const BatchOptions& opts) {
    MadeJob made = make_real_job(lanes, n, dir, opts);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    if (!queue_job(made.job, /*blocking=*/false)) return std::nullopt;
    return BatchFuture(std::move(made.state));
  }

  BatchFuture submit_tasks(std::size_t count,
                           std::function<void(std::size_t, abft::Stats&)> fn,
                           const SubmitOptions& submit, std::size_t chunk) {
    MadeJob made = make_task_job(count, std::move(fn), submit, chunk);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    queue_job(made.job, /*blocking=*/true);
    return BatchFuture(std::move(made.state));
  }

  std::optional<BatchFuture> try_submit_tasks(
      std::size_t count, std::function<void(std::size_t, abft::Stats&)> fn,
      const SubmitOptions& submit, std::size_t chunk) {
    MadeJob made = make_task_job(count, std::move(fn), submit, chunk);
    if (made.job == nullptr) return BatchFuture(std::move(made.state));
    if (!queue_job(made.job, /*blocking=*/false)) return std::nullopt;
    return BatchFuture(std::move(made.state));
  }

  // Marks an inline job as claimed-at-submission so its report and class
  // stats carry a meaningful queue-wait (~0) and run time.
  void mark_inline_started(Job& job) {
    job.started = true;  // same thread runs and finishes it; no sharing
    job.start_time = Clock::now();
  }

  // Blocking real-batch entry point: a single lane always qualifies for
  // the inline fast path (real lanes never stage through the arena).
  BatchReport run_sync_real(std::span<const RealLane> lanes, std::size_t n,
                            RealDirection dir, const BatchOptions& opts) {
    if (lanes.size() != 1) return submit_real(lanes, n, dir, opts).get();
    MadeJob made = make_real_job(lanes, n, dir, opts);
    note_admitted(*made.job);
    mark_inline_started(*made.job);
    Arena scratch;  // never grows: real lanes are staging-free
    work_on(*made.job, scratch, /*preemptible=*/false);
    return BatchFuture(std::move(made.state)).get();
  }

  // Blocking entry point. A single lane that needs no staging (the
  // single-shot protected_fft / transform_one shape) bypasses the queue —
  // and the admission cap — entirely: the caller thread runs the job
  // itself through the exact worker path (work_on -> run_lane -> finish),
  // so single-shot latency pays no cross-thread dispatch and does not sit
  // behind queued batches. The scratch arena is provably untouched
  // (run_lane stages only under preserve_inputs or aliased in/out), which
  // is what makes the inline run safe next to concurrent submitters
  // without sharing worker arenas.
  BatchReport run_sync(std::span<const Lane> lanes, std::size_t n,
                       const BatchOptions& opts) {
    const bool inline_eligible =
        lanes.size() == 1 && !opts.preserve_inputs &&
        lanes[0].out != lanes[0].in;
    if (!inline_eligible) return submit(lanes, n, opts).get();
    MadeJob made = make_job(lanes, n, opts);
    note_admitted(*made.job);
    mark_inline_started(*made.job);
    Arena scratch;  // never grows: the lane qualifies as staging-free
    work_on(*made.job, scratch, /*preemptible=*/false);
    return BatchFuture(std::move(made.state)).get();
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
  return impl_->submit(lanes, n, opts);
}

BatchFuture BatchEngine::submit_batch(cplx* in, cplx* out, std::size_t n,
                                      std::size_t count,
                                      const BatchOptions& opts) {
  return impl_->submit(pack_lanes(in, out, n, count), n, opts);
}

std::optional<BatchFuture> BatchEngine::try_submit_batch(
    std::span<const Lane> lanes, std::size_t n, const BatchOptions& opts) {
  return impl_->try_submit(lanes, n, opts);
}

namespace {

// Contiguous real layout: lane L at re + L*n and spec + L*(n/2 + 1).
std::vector<RealLane> pack_real_lanes(double* re, cplx* spec, std::size_t n,
                                      std::size_t count) {
  ftfft::detail::require(re != nullptr && spec != nullptr,
                         "BatchEngine: real batch buffers must not be null");
  std::vector<RealLane> lanes(count);
  const std::size_t spectrum = n / 2 + 1;
  for (std::size_t i = 0; i < count; ++i) {
    lanes[i].re = re + i * n;
    lanes[i].spec = spec + i * spectrum;
  }
  return lanes;
}

}  // namespace

BatchFuture BatchEngine::submit_real_batch(std::span<const RealLane> lanes,
                                           std::size_t n, RealDirection dir,
                                           const BatchOptions& opts) {
  return impl_->submit_real(lanes, n, dir, opts);
}

BatchFuture BatchEngine::submit_real_batch(double* re, cplx* spec,
                                           std::size_t n, std::size_t count,
                                           RealDirection dir,
                                           const BatchOptions& opts) {
  return impl_->submit_real(pack_real_lanes(re, spec, n, count), n, dir,
                            opts);
}

std::optional<BatchFuture> BatchEngine::try_submit_real_batch(
    std::span<const RealLane> lanes, std::size_t n, RealDirection dir,
    const BatchOptions& opts) {
  return impl_->try_submit_real(lanes, n, dir, opts);
}

BatchReport BatchEngine::transform_real_batch(std::span<const RealLane> lanes,
                                              std::size_t n, RealDirection dir,
                                              const BatchOptions& opts) {
  return impl_->run_sync_real(lanes, n, dir, opts);
}

BatchFuture BatchEngine::submit_tasks(
    std::size_t count, std::function<void(std::size_t, abft::Stats&)> fn,
    const SubmitOptions& submit, std::size_t chunk) {
  return impl_->submit_tasks(count, std::move(fn), submit, chunk);
}

std::optional<BatchFuture> BatchEngine::try_submit_tasks(
    std::size_t count, std::function<void(std::size_t, abft::Stats&)> fn,
    const SubmitOptions& submit, std::size_t chunk) {
  return impl_->try_submit_tasks(count, std::move(fn), submit, chunk);
}

BatchReport BatchEngine::transform_batch(std::span<const Lane> lanes,
                                         std::size_t n,
                                         const BatchOptions& opts) {
  return impl_->run_sync(lanes, n, opts);
}

BatchReport BatchEngine::transform_batch(cplx* in, cplx* out, std::size_t n,
                                         std::size_t count,
                                         const BatchOptions& opts) {
  return impl_->run_sync(pack_lanes(in, out, n, count), n, opts);
}

abft::Stats BatchEngine::transform_one(cplx* in, cplx* out, std::size_t n,
                                       const abft::Options& opts) {
  Lane lane{in, out, nullptr};
  BatchOptions batch_opts;
  batch_opts.abft = opts;
  BatchReport report = impl_->run_sync({&lane, 1}, n, batch_opts);
  // Rethrow the lane's original exception so single-shot callers keep the
  // documented taxonomy (invalid_argument for misuse, UncorrectableError
  // for fault-model violations).
  if (report.failed_lanes > 0) std::rethrow_exception(report.exceptions[0]);
  return report.per_lane[0];
}

BatchEngine& BatchEngine::shared() {
  static BatchEngine instance;
  return instance;
}

SchedulerStats scheduler_stats() {
  return BatchEngine::shared().scheduler_stats();
}

}  // namespace ftfft::engine
