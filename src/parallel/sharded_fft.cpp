// Engine-sharded six-step FFT (submit_parallel / parallel_fft_sharded).
//
// Same algorithm, same arithmetic, different execution substrate than
// parallel_fft.cpp: the p simulated ranks become p work items per phase on
// a BatchEngine, and the three transposes become direct cache-blocked
// copies between shared arrays — rank r's "receive of block q" is a single
// pass that copies in[q] -> out[r], generates the sender's dual message
// checksum inside that copy (checksum::copy_dual_sum, the communication
// analogue of PR 6's staged-copy fusion) and verifies it on the receiver
// side. Phases chain through BatchFuture::then callbacks, so a submission
// never blocks a caller thread and consecutive huge transforms pipeline
// across the pool.
//
// Bit-compatibility contract (tested by ShardedMatchesReference*): the
// output equals parallel_fft's bit for bit, because every operation that
// touches data — block copies, the FFT1 gather order and engine, the DMR /
// plain twiddle, the k*r*k FFT2, the final scatter — is the same code or
// the same arithmetic. The only
// differences are checksum accumulation order (ascending source rank here
// vs resident-then-circle-schedule there), which changes checksum values
// by round-off but never the data, and modeled-time bookkeeping.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abft/dmr.hpp"
#include "abft/inplace.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/scratch.hpp"
#include "common/timer.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"
#include "parallel/parallel_fft.hpp"
#include "parallel/parallel_plan.hpp"

namespace ftfft::parallel {

namespace detail {

/// Completion + buffer state shared by the executor, the phase callbacks
/// and the ParallelFuture. Phases stream in -> buf1 -> buf2 -> out; see
/// the buffer-scheme note below for who owns what.
struct ShardedState {
  std::size_t p = 0, n = 0, n_loc = 0, bsz = 0;
  ParallelOptions opts;
  std::shared_ptr<const ParallelPlan> plan;
  engine::BatchEngine* eng = nullptr;

  // Buffer scheme. The phases stream in -> buf1 -> buf2 -> out, and every
  // element of a buffer is written before anything reads it, so the
  // intermediates live in raw *uninitialized* storage (std::complex
  // zero-fills even under a default-init allocator, and at 2^22 the two
  // value-initialization passes a vector resize would do are a measurable
  // slice of the whole transform). The final spectrum must come back as a
  // std::vector, so `out` points into one of the two vectors we own:
  //  - normally the input vector itself — after phase 1 nobody reads it,
  //    so the phase-3 scatter recycles it and get() moves it out with no
  //    allocation, no zero-fill and no copy;
  //  - when a modeled rank failure may trigger a whole-transform restart
  //    (fail_rank armed and max_rank_restarts > 0), the input must stay
  //    pristine for the re-run, so `out` is a separate zero-filled vector.
  // The raw stores come from a process-wide pool (scratch_take/scratch_put)
  // and go back to it when the transform completes: for huge transforms the
  // dominant cost of a fresh 2*N-double block is not the allocation but
  // faulting its pages in, and glibc hands blocks this size straight back
  // to the OS on free — pooling keeps the pages warm across submissions.
  // A rank's per-phase working buffers (checksum slots, FFT1 tile, staged
  // blocks) never outlive its phase task: they live on a frame of the
  // running worker's scratch workspace (common/scratch.hpp).
  std::vector<cplx> in;  ///< owned input; faults injected at submission
  std::vector<cplx> a;   ///< restart mode only: separate output vector
  std::unique_ptr<double[]> s1_store, s2_store;  ///< uninitialized scratch
  std::size_t store_doubles = 0;  ///< pooled size of each raw store
  cplx* buf1 = nullptr;  ///< phase-1 output / phase-2 input
  cplx* buf2 = nullptr;  ///< phase-2 output / phase-3 input
  cplx* out = nullptr;   ///< final spectrum (in.data() or a.data())
  bool out_is_input = false;

  std::vector<fault::Injector> injectors;  ///< one per simulated rank

  // Per-rank accumulators; each slot written only by its rank's task.
  std::vector<abft::Stats> rank_stats;
  std::vector<TransposeStats> rank_comm;
  std::vector<double> rank_cpu;
  std::array<std::vector<double>, 3> phase_cpu;
  std::array<std::vector<double>, 3> phase_comm;
  std::array<double, 3> phase_wall{};

  /// One-shot latch for the modeled rank failure: a restart models failover
  /// onto a replacement node, so the fault does not refire.
  std::atomic<bool> fail_fired{false};
  int restarts_done = 0;

  std::chrono::steady_clock::time_point phase_start{};

  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::exception_ptr error;
  ParallelReport report;
};

}  // namespace detail

namespace {

/// Tiny process-wide pool of big uninitialized scratch blocks. take()
/// returns a pooled block whose capacity covers `doubles` (contents
/// unspecified) or a fresh allocation; put() retains at most kPoolCap
/// blocks and lets the rest free normally. Keeping the blocks alive keeps
/// their pages resident, so back-to-back sharded transforms skip the
/// fault-in pass that otherwise dominates buffer setup at 2^22+.
constexpr std::size_t kPoolCap = 4;

struct PooledBlock {
  std::size_t doubles = 0;
  std::unique_ptr<double[]> mem;
};

// Both statics are intentionally immortal (heap-allocated, never freed): a
// transform nobody waits for completes on an engine worker whenever it
// completes, so its scratch_put can run while the main thread is in atexit
// teardown. A function-local static vector would be destroyed there and
// the late put would write into freed storage; a leaked one is reachable
// until process exit and always safe to push into.
std::mutex& pool_mu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<PooledBlock>& pool() {
  static std::vector<PooledBlock>* blocks = new std::vector<PooledBlock>;
  return *blocks;
}

std::unique_ptr<double[]> scratch_take(std::size_t doubles) {
  {
    std::lock_guard<std::mutex> lock(pool_mu());
    auto& blocks = pool();
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
      if (it->doubles == doubles) {  // exact match: no capacity bookkeeping
        auto mem = std::move(it->mem);
        blocks.erase(it);
        return mem;
      }
    }
  }
  return std::unique_ptr<double[]>(new double[doubles]);  // default-init
}

void scratch_put(std::size_t doubles, std::unique_ptr<double[]> mem) {
  if (mem == nullptr) return;
  std::lock_guard<std::mutex> lock(pool_mu());
  auto& blocks = pool();
  if (blocks.size() < kPoolCap) {
    blocks.push_back({doubles, std::move(mem)});
  }
}

}  // namespace

namespace {

using detail::ShardedState;

/// One transposed block, pulled straight from the previous phase's shared
/// array: the copy IS the message. For a checksummed pull the sender dual
/// checksum is generated inside the copy pass, then the modeled link
/// corruption, the injected kCommBlock fault and the verification hit the
/// received data — the exact fault window of the reference receive path.
void pull_block(ShardedState& st, std::size_t r, std::size_t q,
                const cplx* src, cplx* dst, bool checksums, double eta,
                TransposeStats& tstats) {
  const std::size_t bsz = st.bsz;
  if (q == r) {  // resident block: no message
    std::memcpy(dst, src, bsz * sizeof(cplx));
    return;
  }
  const NetworkModel& net = st.opts.net;
  tstats.bytes_sent += (bsz + (checksums ? 2 : 0)) * sizeof(cplx);
  // The corruption clock ticks on this rank's receive count across the
  // whole transform (previous phases live in rank_comm, the current one in
  // tstats), matching the reference path's per-rank accumulated counter.
  const auto nth_message = [&] {
    return st.rank_comm[r].messages_received + tstats.messages_received;
  };
  if (!checksums) {
    std::memcpy(dst, src, bsz * sizeof(cplx));
    ++tstats.messages_received;
    if (net.corrupt_every != 0 && nth_message() % net.corrupt_every == 0) {
      corrupt_in_flight(dst);  // silent: nothing verifies this variant
    }
    return;
  }
  const int t_max = st.plan->max_errors();
  abft::StoredSums stored;
  checksum::SyndromeSet syn;
  if (t_max > 1) {
    // Multi-error trailer: the "message" carries 2t syndrome moments,
    // generated over the copied block before the in-flight fault window —
    // the exact sender-side timing of the reference pack pass.
    std::memcpy(dst, src, bsz * sizeof(cplx));
    syn = checksum::syndrome_sum(nullptr, dst, bsz, 1, 2 * t_max,
                                 st.plan->syndrome_nodes_block());
    stored = {{}, &syn, t_max, st.plan->syndrome_nodes_block()};
  } else {
    stored.dual = checksum::copy_dual_sum(dst, src, bsz);
  }
  ++tstats.messages_received;
  if (net.corrupt_every != 0 && nth_message() % net.corrupt_every == 0) {
    corrupt_in_flight(dst);
  }
  st.injectors[r].apply(fault::Phase::kCommBlock, q, dst, bsz);
  detail::verify_block(dst, bsz, stored, eta, st.opts.max_retries, tstats);
}

// Phase 1: transpose1 pull + CMCG + FFT1 (bsz p-point column FFTs).
void phase1(ShardedState& st, std::size_t r, TransposeStats& tstats,
            abft::Stats& stats) {
  const ParallelOptions& opts = st.opts;
  const ParallelPlan& plan = *st.plan;
  const std::size_t p = st.p, n_loc = st.n_loc, bsz = st.bsz;
  const bool protect = opts.protect;
  const bool checksums = protect && opts.memory_ft;
  const double eta =
      checksums ? detail::block_eta(plan, opts.eta_override,
                                    st.in.data() + r * n_loc)
                : 0.0;

  cplx* slice = st.buf1 + r * n_loc;
  scratch::Frame frame;
  const std::size_t slots = protect ? bsz : 0;
  const std::span<cplx> s1 = frame.take_zeroed<cplx>(slots);
  const std::span<cplx> s2 = frame.take_zeroed<cplx>(slots);
  const std::span<double> e_col = frame.take_zeroed<double>(slots);
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.in.data() + q * n_loc + r * bsz;
    cplx* dst = slice + q * bsz;
    pull_block(st, r, q, src, dst, checksums, eta, tstats);
    if (protect) {
      // CMCG fused into reception, like the reference on_block hook (the
      // accumulation order is ascending q here — a round-off-level
      // difference in the checksum values, never in the data).
      detail::fold_fft1_checksums(plan, q, dst, bsz, s1.data(), s2.data(),
                                  e_col.data());
    }
  }

  // FFT1 over columns (stride bsz), gathered through an L1-resident tile of
  // rows so the p-strided column walk never leaves cache: copy tc columns'
  // worth of every row in, transform columns from the tile, copy back.
  fft::Fft fftp(p);
  const std::size_t tc =
      std::max<std::size_t>(4, std::size_t{1024} / (p == 0 ? 1 : p));
  const std::span<cplx> tile = frame.take<cplx>(p * tc);
  for (std::size_t u0 = 0; u0 < bsz; u0 += tc) {
    const std::size_t cols = std::min(tc, bsz - u0);
    for (std::size_t t = 0; t < p; ++t) {
      std::memcpy(tile.data() + t * cols, slice + t * bsz + u0,
                  cols * sizeof(cplx));
    }
    detail::fft1_columns(plan, opts, fftp, tile.data(), cols, u0, cols,
                         s1.data(), s2.data(), e_col.data(), st.injectors[r],
                         stats);
    for (std::size_t t = 0; t < p; ++t) {
      std::memcpy(slice + t * bsz + u0, tile.data() + t * cols,
                  cols * sizeof(cplx));
    }
  }
}

// Phase 2: transpose2 pull + DMR twiddle + FFT2 (n_loc in-place k*r*k,
// through the plan-cached ProtectionPlan — zero rA generations per call).
void phase2(ShardedState& st, std::size_t r, TransposeStats& tstats,
            abft::Stats& stats) {
  const ParallelOptions& opts = st.opts;
  const ParallelPlan& plan = *st.plan;
  const std::size_t p = st.p, n_loc = st.n_loc, bsz = st.bsz;
  const bool protect = opts.protect;
  const bool checksums = protect && opts.memory_ft;
  const double eta =
      checksums ? detail::block_eta(plan, opts.eta_override,
                                    st.buf1 + r * n_loc)
                : 0.0;

  cplx* slice = st.buf2 + r * n_loc;
  scratch::Frame frame;
  cplx* tmp = frame.take<cplx>(bsz).data();
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.buf1 + q * n_loc + r * bsz;
    cplx* dst = slice + q * bsz;
    pull_block(st, r, q, src, dst, checksums, eta, tstats);
    const std::size_t j0 = r * q * bsz;
    if (protect) {
      std::memcpy(tmp, dst, bsz * sizeof(cplx));
      stats.dmr_mismatches += abft::dmr_twiddle_multiply(
          plan.twiddles(), tmp, 1, dst, bsz, r, j0, q, &st.injectors[r]);
    } else {
      abft::twiddle_multiply(plan.twiddles(), dst, bsz, r, j0);
    }
  }

  if (protect) {
    abft::Options aopts = abft::Options::online_opt(opts.memory_ft);
    aopts.eta_override = opts.eta_override;
    aopts.max_retries = opts.max_retries;
    aopts.injector = &st.injectors[r];
    abft::inplace_online_transform(slice, *plan.fft2_plan(), aopts, stats);
  } else {
    fft::Fft engine(n_loc);
    engine.execute_inplace(slice);
  }
}

// Phase 3: transpose3 pull + cache-blocked local adjust with per-block
// memory guards over the final output.
void phase3(ShardedState& st, std::size_t r, TransposeStats& tstats,
            abft::Stats& stats) {
  const ParallelOptions& opts = st.opts;
  const ParallelPlan& plan = *st.plan;
  const std::size_t p = st.p, n_loc = st.n_loc, bsz = st.bsz;
  const bool checksums = opts.protect && opts.memory_ft;
  const double eta =
      checksums ? detail::block_eta(plan, opts.eta_override,
                                    st.buf2 + r * n_loc)
                : 0.0;

  scratch::Frame frame;
  cplx* loc = frame.take<cplx>(n_loc).data();
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.buf2 + q * n_loc + r * bsz;
    pull_block(st, r, q, src, loc + q * bsz, checksums, eta, tstats);
  }

  const auto guards = detail::adjust_guards(plan, opts, loc);

  // bsz x p scatter into natural order, u-chunked so the p-strided write
  // window (p * tu * 16 bytes) stays L1-resident instead of touching p
  // cache lines per element across the whole slice.
  cplx* out = st.out + r * n_loc;
  const std::size_t tu =
      std::max<std::size_t>(8, std::size_t{1024} / (p == 0 ? 1 : p));
  for (std::size_t u0 = 0; u0 < bsz; u0 += tu) {
    const std::size_t u1 = std::min(u0 + tu, bsz);
    for (std::size_t q = 0; q < p; ++q) {
      for (std::size_t u = u0; u < u1; ++u) {
        out[u * p + q] = loc[q * bsz + u];
      }
    }
  }
  st.injectors[r].apply(fault::Phase::kFinalOutput, 0, out, n_loc);

  detail::verify_adjusted(out, guards, plan, opts, stats);
}

void run_phase(ShardedState& st, int phase, std::size_t r) {
  const NetworkModel& net = st.opts.net;
  // Failure check before any work or accounting: a failed attempt leaves no
  // partial stats behind. exchange() makes the loss one-shot, so a restart
  // (modeling failover to a spare node) succeeds.
  if (r == net.fail_rank && net.fail_phase == phase + 1 &&
      !st.fail_fired.exchange(true)) {
    throw RankFailedError(
        "parallel fft: rank failed entering transpose phase " +
        std::to_string(phase + 1));
  }

  ThreadCpuTimer cpu;
  TransposeStats tstats;
  abft::Stats astats;
  switch (phase) {
    case 0: phase1(st, r, tstats, astats); break;
    case 1: phase2(st, r, tstats, astats); break;
    default: phase3(st, r, tstats, astats); break;
  }
  const double t = cpu.elapsed();

  st.rank_comm[r] += tstats;
  st.rank_stats[r] += astats;
  st.phase_cpu[phase][r] = t;
  st.rank_cpu[r] += t;

  // Modeled communication of this rank's p-1 exchanges (same alpha-beta
  // model as the reference path), plus the straggler penalty.
  const bool checksums = st.opts.protect && st.opts.memory_ft;
  const std::size_t payload = st.bsz + (checksums ? 2 : 0);
  double comm =
      static_cast<double>(st.p - 1) * net.cost(payload * sizeof(cplx));
  if (r == net.stall_rank) {
    comm += static_cast<double>(st.p - 1) * net.stall_seconds;
  }
  st.phase_comm[phase][r] = comm;
}

// Completes the transform, on success and on every error path. The raw
// stores go back to the pool *before* `ready` is set: the waiter's get()
// may return and submit the next transform while this worker still holds
// the state, and that submission must find both stores pooled.
void fulfill(const std::shared_ptr<ShardedState>& st, std::exception_ptr err) {
  scratch_put(st->store_doubles, std::move(st->s1_store));
  scratch_put(st->store_doubles, std::move(st->s2_store));
  std::lock_guard<std::mutex> lock(st->mu);
  st->error = std::move(err);
  st->ready = true;
  st->cv.notify_all();
}

void reset_accumulators(ShardedState& st) {
  std::fill(st.rank_stats.begin(), st.rank_stats.end(), abft::Stats{});
  std::fill(st.rank_comm.begin(), st.rank_comm.end(), TransposeStats{});
  std::fill(st.rank_cpu.begin(), st.rank_cpu.end(), 0.0);
  for (int ph = 0; ph < 3; ++ph) {
    std::fill(st.phase_cpu[ph].begin(), st.phase_cpu[ph].end(), 0.0);
    std::fill(st.phase_comm[ph].begin(), st.phase_comm[ph].end(), 0.0);
  }
  st.phase_wall.fill(0.0);
}

void finalize(const std::shared_ptr<ShardedState>& st) {
  ParallelReport rep;
  rep.sharded = true;
  rep.rank_restarts = static_cast<std::size_t>(st->restarts_done);
  for (std::size_t r = 0; r < st->p; ++r) {
    rep.stats += st->rank_stats[r];
    rep.comm_stats += st->rank_comm[r];
    rep.bytes_per_rank =
        std::max(rep.bytes_per_rank, st->rank_comm[r].bytes_sent);
    double comm_total = 0.0;
    for (int ph = 0; ph < 3; ++ph) comm_total += st->phase_comm[ph][r];
    rep.max_compute = std::max(rep.max_compute, st->rank_cpu[r]);
    rep.max_comm = std::max(rep.max_comm, comm_total);
    rep.makespan = std::max(rep.makespan, st->rank_cpu[r] + comm_total);
  }
  for (int ph = 0; ph < 3; ++ph) {
    rep.phases[ph].wall_seconds = st->phase_wall[ph];
    for (std::size_t r = 0; r < st->p; ++r) {
      rep.phases[ph].max_cpu_seconds =
          std::max(rep.phases[ph].max_cpu_seconds, st->phase_cpu[ph][r]);
      rep.phases[ph].modeled_comm =
          std::max(rep.phases[ph].modeled_comm, st->phase_comm[ph][r]);
    }
  }
  st->report = rep;
  fulfill(st, nullptr);
}

void start_phase(const std::shared_ptr<ShardedState>& st, int phase);

// Runs on the worker that retires a phase; must not throw (BatchFuture
// contract), so everything is fenced and failures park an exception_ptr.
void on_phase_done(const std::shared_ptr<ShardedState>& st, int phase,
                   engine::BatchReport& rep) {
  try {
    st->phase_wall[phase] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      st->phase_start)
            .count();
    if (rep.failed_lanes != 0) {
      std::exception_ptr first;
      bool all_rank_failures = true;
      for (const auto& ep : rep.exceptions) {
        if (!ep) continue;
        if (!first) first = ep;
        try {
          std::rethrow_exception(ep);
        } catch (const RankFailedError&) {
        } catch (...) {
          all_rank_failures = false;
        }
      }
      if (all_rank_failures &&
          st->restarts_done < st->opts.max_rank_restarts) {
        // Modeled node loss with failover budget left: restart the whole
        // transform from the (still intact, still fault-injected) input.
        ++st->restarts_done;
        reset_accumulators(*st);
        start_phase(st, 0);
        return;
      }
      fulfill(st, first);
      return;
    }
    if (phase < 2) {
      start_phase(st, phase + 1);
      return;
    }
    finalize(st);
  } catch (...) {
    fulfill(st, std::current_exception());
  }
}

void start_phase(const std::shared_ptr<ShardedState>& st, int phase) {
  st->phase_start = std::chrono::steady_clock::now();
  // Rank phases run at high priority, non-cancellable and deadline-free:
  // a phase fan-out is continuation work for a transform that already
  // holds scratch and partial state, so it must be neither starved behind
  // newly arriving batches nor shed/expired mid-pipeline (a rank restart
  // resubmits through here and has to win queue position to make the
  // failover budget meaningful). Phases submitted from worker callbacks
  // additionally bypass the admission cap (see BatchEngine's pool-thread
  // rule), so a saturated queue cannot deadlock the chain.
  engine::SubmitOptions rank_submit;
  rank_submit.priority = engine::Priority::kHigh;
  rank_submit.deadline = std::chrono::nanoseconds{-1};
  rank_submit.cancellable = false;
  st->eng
      ->submit_tasks(st->p,
                     [st, phase](std::size_t r, abft::Stats&) {
                       run_phase(*st, phase, r);
                     },
                     rank_submit)
      .then([st, phase](engine::BatchReport& rep) {
        on_phase_done(st, phase, rep);
      });
}

}  // namespace

ParallelFuture submit_parallel(
    std::size_t p, std::vector<cplx> input, const ParallelOptions& opts,
    const std::function<void(std::size_t, fault::Injector&)>& arm,
    engine::BatchEngine* engine) {
  const std::size_t n = input.size();
  detail::require(p >= 2, "parallel_fft: need at least 2 ranks");
  detail::require(p % 3 != 0,
                  "parallel_fft: rank count divisible by 3 degenerates the "
                  "checksum encoding");
  detail::require(n % (p * p) == 0,
                  "parallel_fft: N must be divisible by p^2");

  auto st = std::make_shared<ShardedState>();
  st->p = p;
  st->n = n;
  st->n_loc = n / p;
  st->bsz = n / p / p;
  st->opts = opts;
  st->plan = ParallelPlan::get(p, n, opts.protect,
                               opts.max_correctable_errors);  // throws on bad n_loc
  st->eng = engine != nullptr ? engine : &engine::BatchEngine::shared();
  st->in = std::move(input);
  st->out_is_input = opts.net.fail_rank == NetworkModel::kNoRank ||
                     opts.max_rank_restarts == 0;
  st->store_doubles = 2 * n;
  st->s2_store = scratch_take(st->store_doubles);
  st->buf2 = reinterpret_cast<cplx*>(st->s2_store.get());
  if (st->out_is_input) {
    st->s1_store = scratch_take(st->store_doubles);
    st->buf1 = reinterpret_cast<cplx*>(st->s1_store.get());
    st->out = st->in.data();
  } else {
    st->a.resize(n);  // restart mode: keep `in` pristine for the re-run
    st->buf1 = st->a.data();
    st->out = st->a.data();
  }
  st->injectors.resize(p);
  if (arm) {
    for (std::size_t r = 0; r < p; ++r) arm(r, st->injectors[r]);
  }
  // Input faults land before anything is enqueued: phase-1 tasks of every
  // rank read every input slice, so the injection cannot ride inside them.
  for (std::size_t r = 0; r < p; ++r) {
    st->injectors[r].apply(fault::Phase::kRankLocalInput, 0,
                           st->in.data() + r * st->n_loc, st->n_loc);
  }
  st->rank_stats.resize(p);
  st->rank_comm.resize(p);
  st->rank_cpu.assign(p, 0.0);
  for (int ph = 0; ph < 3; ++ph) {
    st->phase_cpu[ph].assign(p, 0.0);
    st->phase_comm[ph].assign(p, 0.0);
  }
  start_phase(st, 0);
  return ParallelFuture(std::move(st));
}

std::vector<cplx> parallel_fft_sharded(
    std::size_t p, const std::vector<cplx>& input, const ParallelOptions& opts,
    ParallelReport* report,
    const std::function<void(std::size_t, fault::Injector&)>& arm) {
  ParallelFuture fut = submit_parallel(p, input, opts, arm, nullptr);
  return fut.get(report);
}

ParallelFuture::ParallelFuture(std::shared_ptr<detail::ShardedState> state)
    : state_(std::move(state)) {}

bool ParallelFuture::ready() const {
  detail::require(state_ != nullptr, "ParallelFuture: invalid future");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

void ParallelFuture::wait() const {
  detail::require(state_ != nullptr, "ParallelFuture: invalid future");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->ready; });
}

std::vector<cplx> ParallelFuture::get(ParallelReport* report) {
  wait();
  auto st = std::move(state_);  // one-shot
  if (st->error) std::rethrow_exception(st->error);
  if (report != nullptr) *report = st->report;
  return std::move(st->out_is_input ? st->in : st->a);
}

}  // namespace ftfft::parallel
