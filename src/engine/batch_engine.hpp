// Queued, multi-threaded execution of protected transforms.
//
// The paper's online ABFT scheme protects one transform at a time; a
// production deployment runs many independent transforms ("lanes") in
// flight at once, and a caller cannot afford to block a thread for every
// batch. BatchEngine therefore separates submission from completion. There are
// three entry points — submit_batch (complex lanes), submit_real_batch (r2c/c2r
// lanes) and submit_tasks (generic work items) — and each builds the same kind
// of job: an item count plus one item function, resolved once at submission
// (plans, lane copies). The job enters its class's work queue through one
// admission path and the call immediately returns a BatchFuture; callers that
// want to block call .get(). A persistent pool of worker threads pulls items
// across all queued jobs — items of a job are claimed from its atomic cursor in
// contiguous chunks, and a worker that exhausts a job's cursor moves on to the
// next job while stragglers finish the previous one, so checksum setup,
// transform and verification of consecutive batches overlap (the CPU analogue
// of TurboFFT's pipelined batching). Every item, whatever its kind, runs
// through one runner with one skip path (ticket cancellation) and one
// failure-isolation path.
//
// Scheduling:
//
//  * Three priority classes, each a FIFO queue. Workers always claim from
//    the highest non-empty class and re-check between lane chunks, so a
//    high arrival overtakes a half-drained low job at the next chunk
//    boundary (running lanes are never preempted).
//  * One pending-lane cap. FTFFT_ENGINE_QUEUE_CAP (or set_queue_cap)
//    bounds the pending lanes of all classes together — lanes, not jobs,
//    so a 1000-lane batch occupies 1000 slots. A submission that does not
//    fit blocks until enough lanes retire. Pool threads (phase
//    continuations of the sharded FFT, then-callbacks) bypass the cap so
//    a full queue cannot deadlock the pool.
//  * Observability. BatchReport carries the job's queue-wait and run
//    latency; scheduler_stats() aggregates per-class counters and latency
//    percentiles.
//
// Shared, immutable state (decomposition plans, twiddle tables, and the
// ABFT ProtectionPlan with its checksum vectors and threshold coefficients)
// is resolved once per job at submission time through the process-wide
// LRU-bounded plan caches — a warm cache makes submission O(lanes) pointer
// work — and handed to every lane by reference. Per-thread mutable state
// — staging copies of lane inputs and the protected transforms' own
// working buffers — lives in the worker thread's scratch workspace
// (common/scratch.hpp), reused across lanes and jobs and trimmed by its
// high-water rule.
// Per-lane abft::Stats land in pre-sized slots, so workers never contend
// on shared counters.
//
// A lane that throws (UncorrectableError when the fault model is exceeded)
// is recorded in the report and does not disturb the other lanes.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abft/options.hpp"
#include "common/complex.hpp"
#include "fault/injector.hpp"

namespace ftfft::engine {

namespace detail {
struct BatchShared;  // completion state shared by job, future and ticket
}  // namespace detail

/// One transform in a batch. All lanes in a batch share the same size and
/// protection options; in/out buffers must not overlap between lanes.
struct Lane {
  /// Input samples (n elements). May be modified by fault repair unless
  /// BatchOptions::preserve_inputs is set.
  cplx* in = nullptr;
  /// Output spectrum (n elements). nullptr = transform in place over `in`.
  /// `out == in` is allowed and staged through worker scratch.
  cplx* out = nullptr;
  /// Optional per-lane fault injector (overrides the batch-wide one);
  /// campaigns schedule different faults into different lanes with this.
  fault::Injector* injector = nullptr;
};

/// One real-input transform in a batch (see submit_real_batch). The same
/// descriptor serves both directions: r2c reads `re` and writes `spec`,
/// c2r reads `spec` and writes `re`. Real lanes never modify their source
/// buffer (the protected paths work out of scratch), so
/// BatchOptions::preserve_inputs is trivially satisfied and no staging
/// copy is needed.
struct RealLane {
  /// Time-domain signal, n doubles.
  double* re = nullptr;
  /// Half-spectrum, n/2 + 1 complex bins (FFTW r2c layout).
  cplx* spec = nullptr;
  /// Optional per-lane fault injector (overrides the batch-wide one).
  fault::Injector* injector = nullptr;
};

/// Direction of a real-lane batch.
enum class RealDirection {
  kForward,  ///< r2c: re -> spec (unnormalized half-spectrum)
  kInverse,  ///< c2r: spec -> re (1/n-normalized real inverse)
};

/// Priority class of a submission. Lower value = more urgent; workers
/// always drain the highest non-empty class first. Submitting any other
/// value throws std::invalid_argument.
enum class Priority : int {
  kHigh = 0,    ///< latency-sensitive traffic, sharded rank phases
  kNormal = 1,  ///< the default class
  kLow = 2,     ///< batch/background work
};

/// Number of scheduling classes.
inline constexpr std::size_t kNumPriorities = 3;

/// Stable lowercase class name ("high" | "normal" | "low") for logs and
/// bench tables.
const char* priority_name(Priority p) noexcept;

/// Per-submission scheduling knobs, carried by BatchOptions::submit and by
/// the submit_tasks parameter.
struct SubmitOptions {
  /// Scheduling class.
  Priority priority = Priority::kNormal;
};

/// Batch-wide execution knobs beyond the per-lane ABFT options.
struct BatchOptions {
  /// Protection configuration applied to every lane.
  abft::Options abft{};
  /// Lanes claimed per scheduler grab; 0 = pick from batch size and thread
  /// count. Bigger chunks amortize the atomic, smaller ones balance better.
  std::size_t chunk = 0;
  /// Stage every lane input through worker scratch so the caller's input
  /// buffers are never written (fault repair then fixes the staged copy).
  bool preserve_inputs = false;
  /// Scheduling class.
  SubmitOptions submit{};
};

/// Nearest-rank percentiles over the most recent latency samples of one
/// class (bounded ring; seconds). count is the lifetime sample count.
struct LatencyPercentiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Scheduler counters and latency distributions for one priority class.
struct PriorityClassStats {
  std::size_t jobs_submitted = 0;  ///< admitted to the queue
  std::size_t jobs_completed = 0;  ///< futures fulfilled
  std::size_t lanes_submitted = 0;
  std::size_t lanes_completed = 0;  ///< executed (success or lane failure)
  std::size_t lanes_cancelled = 0;  ///< skipped via BatchTicket::cancel
  /// The next three are always 0; kept only until the benchmark stops
  /// reading them (no engine code writes them).
  std::size_t jobs_rejected = 0;
  std::size_t shed_lanes = 0;
  std::size_t deadline_expired_lanes = 0;
  LatencyPercentiles queue_wait;  ///< submission -> first worker claim
  LatencyPercentiles run;         ///< first claim -> future fulfilled
};

/// Engine-wide scheduler snapshot (see BatchEngine::scheduler_stats).
struct SchedulerStats {
  std::array<PriorityClassStats, kNumPriorities> classes{};
  std::size_t queue_cap = 0;       ///< pending-lane bound; 0 = unbounded
  std::size_t pending_lanes = 0;   ///< lanes admitted but not yet retired

  [[nodiscard]] const PriorityClassStats& at(Priority p) const {
    return classes.at(static_cast<std::size_t>(p));
  }
};

/// What the fault tolerance did across a whole batch.
struct BatchReport {
  std::size_t lanes = 0;         ///< lanes submitted
  std::size_t failed_lanes = 0;  ///< lanes whose transform threw or was
                                 ///< cancelled
  std::size_t cancelled_lanes = 0;  ///< lanes skipped by BatchTicket::cancel
                                    ///< (also counted in failed_lanes)
  double queue_wait_seconds = 0.0;  ///< submission -> first worker claim
  double run_seconds = 0.0;         ///< first claim -> completion
  abft::Stats totals;            ///< per_lane merged by Stats::operator+=
  std::vector<abft::Stats> per_lane;
  /// Empty string = lane succeeded; otherwise the exception message.
  std::vector<std::string> errors;
  /// The original exception per failed lane (null when the lane
  /// succeeded), so callers can preserve the library's error taxonomy
  /// (UncorrectableError vs std::invalid_argument vs CancelledError)
  /// instead of parsing messages.
  std::vector<std::exception_ptr> exceptions;

  [[nodiscard]] bool all_ok() const noexcept { return failed_lanes == 0; }
};

/// Cancellation handle for a submitted batch. Copyable and cheap; cancel()
/// marks the job so lanes that have not started yet are skipped (recorded
/// as CancelledError in the report) — lanes already executing run to
/// completion, and the BatchFuture still becomes ready with the partial
/// report. Cancelling a finished job is a harmless no-op.
class BatchTicket {
 public:
  BatchTicket() = default;

  [[nodiscard]] bool valid() const noexcept { return shared_ != nullptr; }
  void cancel() const noexcept;
  [[nodiscard]] bool cancelled() const noexcept;

 private:
  friend class BatchFuture;
  explicit BatchTicket(std::shared_ptr<detail::BatchShared> shared);

  std::shared_ptr<detail::BatchShared> shared_;
};

/// Completion handle for a submitted batch: wait/get the BatchReport or
/// the submission-level exception, or register a callback. Movable and
/// copyable (all copies observe the same completion); get() hands out the
/// report once and invalidates this handle, like std::future.
class BatchFuture {
 public:
  BatchFuture() = default;  ///< invalid until assigned from submit_batch

  [[nodiscard]] bool valid() const noexcept { return shared_ != nullptr; }

  /// True once the report (or exception) is available. Lock-free once the
  /// batch completed (one acquire load). Throws std::invalid_argument on an
  /// invalid future.
  [[nodiscard]] bool ready() const;

  /// Blocks until the batch completes. Returns without touching the lock
  /// when already ready.
  void wait() const;

  /// Blocks up to `timeout`; returns ready(). A zero or negative timeout is
  /// a pure poll — no lock, no wait — and an already-ready future returns
  /// true without locking regardless of the timeout.
  bool wait_for(std::chrono::nanoseconds timeout) const;

  /// Blocks until completion, then moves the report out (rethrows the
  /// submission-level exception instead if the job was aborted wholesale).
  /// One-shot: the future becomes invalid afterwards.
  BatchReport get();

  /// Registers `cb` to run once the batch completes, receiving the report
  /// (lane failures included — inspect report.failed_lanes). Runs on the
  /// worker thread that retires the job, or inline when already ready;
  /// callbacks registered before completion have finished by the time
  /// wait()/get() return, and registering after get() consumed the report
  /// throws. Callbacks must not throw, must not call methods on this
  /// future, and must not block on this engine's other futures (the worker
  /// running them is needed to make progress).
  void then(std::function<void(BatchReport&)> cb);

  /// Cancellation handle for this submission; outlives get().
  [[nodiscard]] BatchTicket ticket() const;

 private:
  friend class BatchEngine;
  explicit BatchFuture(std::shared_ptr<detail::BatchShared> shared);

  std::shared_ptr<detail::BatchShared> shared_;
};

/// Reusable multi-threaded engine for batches of protected transforms.
///
/// Workers are spawned lazily on the first submission and parked on a
/// condition variable while the queues are empty, so an engine is cheap to
/// construct. Submission is thread-safe: any number of threads may call
/// the submit_* methods concurrently; jobs are claimed highest
/// priority class first (FIFO within a class) and may complete out of
/// order (a small job queued behind a large one finishes as soon as its
/// lanes are done). Destroying the engine drains the queues: every
/// admitted job runs to completion (cancelled lanes are skipped) and every
/// future is fulfilled before the destructor returns — no future is ever
/// dropped.
class BatchEngine {
 public:
  /// num_threads = 0 honors FTFFT_ENGINE_THREADS, then falls back to
  /// std::thread::hardware_concurrency().
  explicit BatchEngine(std::size_t num_threads = 0);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept;

  /// Jobs submitted but not yet completed (queued or executing).
  [[nodiscard]] std::size_t pending_jobs() const noexcept;

  /// Pending-lane bound enforced at admission (0 = unbounded). Initialized
  /// from FTFFT_ENGINE_QUEUE_CAP at construction.
  [[nodiscard]] std::size_t queue_cap() const;

  /// Replaces the pending-lane bound at runtime (0 = unbounded). Every
  /// call wakes submitters blocked on admission to re-check the new cap.
  void set_queue_cap(std::size_t cap);

  /// Snapshot of the per-class scheduler counters and latency percentiles.
  /// Cheap enough for a monitoring loop (copies the bounded sample rings
  /// under a stats lock that workers touch once per job).
  [[nodiscard]] SchedulerStats scheduler_stats() const;

  /// Zeroes the scheduler counters and latency rings (tests, epoch-based
  /// monitoring). Does not touch the queue or the cap.
  void reset_scheduler_stats();

  /// Queues the protected n-point transform of every lane and returns
  /// once admitted — immediately while the lanes fit under the queue cap;
  /// otherwise after blocking until enough queued lanes retire. The lane
  /// descriptors are copied; the in/out buffers they point to must stay
  /// alive until the future is ready. Lane failures are reported, not
  /// thrown; misuse (n == 0, null lane pointers, a priority outside
  /// kHigh..kLow) throws std::invalid_argument synchronously before
  /// anything is queued. A
  /// batch-wide injector (opts.abft.injector) mutates per-fault state on
  /// apply and is therefore rejected for multi-lane batches on a
  /// multi-thread engine — schedule per-lane injectors instead.
  BatchFuture submit_batch(std::span<const Lane> lanes, std::size_t n,
                           const BatchOptions& opts = {});

  /// Queues the protected real n-point transform (r2c or c2r per `dir`) of
  /// every lane through the same worker pool, FIFO queue and completion
  /// machinery as complex batches: the RealProtectionPlan, the underlying
  /// RealFftPlan and the packed-transform ProtectionPlan are resolved once
  /// at submission and shared by every lane; per-lane injectors isolate
  /// fault campaigns lane by lane; a lane that throws (UncorrectableError)
  /// is recorded in the report without disturbing the others. The same
  /// misuse rules as submit_batch apply (null lane pointers throw
  /// synchronously; a batch-wide injector is rejected for multi-lane
  /// batches on a multi-thread engine).
  BatchFuture submit_real_batch(std::span<const RealLane> lanes,
                                std::size_t n, RealDirection dir,
                                const BatchOptions& opts = {});

  /// Queues `count` generic work items through the same worker pool, FIFO
  /// queue and completion machinery as transform batches: item i runs
  /// fn(i, stats_i) on a worker thread, where stats_i is the item's
  /// pre-sized BatchReport::per_lane slot. A throw from fn is recorded in
  /// the report (errors/exceptions slot i) and does not disturb other
  /// items; cancellation via the ticket skips unstarted items exactly like
  /// lanes. `fn` is shared by concurrent workers and must be safe to call
  /// from several threads with distinct indices. This is how the sharded
  /// parallel FFT runs its rank phases on the pool (parallel/sharded_fft):
  /// phase work items are plain callables, not transform lanes, so they
  /// must not re-enter this engine synchronously (a blocking wait inside
  /// fn on this engine's own futures can deadlock the pool). `submit`
  /// carries the scheduling class exactly like BatchOptions::submit does
  /// for transform batches.
  BatchFuture submit_tasks(std::size_t count,
                           std::function<void(std::size_t, abft::Stats&)> fn,
                           const SubmitOptions& submit = {},
                           std::size_t chunk = 0);

  /// Process-wide shared engine for callers that do not manage their own
  /// (examples, the sharded FFT's default pool). Worker count from
  /// FTFFT_ENGINE_THREADS (default: hardware_concurrency). Safe to submit
  /// to from multiple threads.
  static BatchEngine& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftfft::engine
