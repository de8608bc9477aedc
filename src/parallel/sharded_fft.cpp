// The distributed six-step executor (submit_parallel).
//
// The p simulated ranks are p work items per phase on a BatchEngine, and
// the three transposes are direct cache-blocked copies between shared
// arrays: rank r's "receive of block q" is a single pass that copies
// in[q] -> out[r] and generates the sender's message trailer inside that
// copy (checksum::copy_dual_sum, the communication analogue of the
// sequential schemes' staged-copy fusion). A message is the block, its
// dual sums (or, under a multi-error budget, 2t syndrome moments taken
// over the copy) and the sender's block energy; the receiver verifies the
// block against a threshold scaled by that energy, so no rank sweeps a
// slice just to size a threshold. Phase 3 reuses the sums and energies of
// its p copies as the final-output guards of the local adjust. Phases
// chain through BatchFuture::then callbacks, so a submission never blocks a
// caller thread and consecutive huge transforms pipeline across the pool.
//
// Determinism contract (tested by ShardedMatchesReferenceBitExact): every
// rank writes only its own slice and accumulator slots, so the spectrum
// and the counters are bit-identical for any engine worker count. Timing
// is modeled per rank and phase: measured thread-CPU seconds plus the
// alpha-beta cost of the phase's p - 1 messages (network_model.hpp).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abft/dmr.hpp"
#include "abft/inplace.hpp"
#include "abft/unit_check.hpp"
#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/scratch.hpp"
#include "common/tile_transpose.hpp"
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
  // std::vector, and the input vector is it: after phase 1 nobody reads the
  // input, so the phase-3 scatter recycles it and get() moves it out with no
  // allocation, no zero-fill and no copy.
  // The raw stores come from a process-wide pool (scratch_take/scratch_put)
  // and go back to it when the transform completes: for huge transforms the
  // dominant cost of a fresh 2*N-double block is not the allocation but
  // faulting its pages in, and glibc hands blocks this size straight back
  // to the OS on free — pooling keeps the pages warm across submissions.
  // A rank's per-phase working buffers (checksum slots, FFT1 staging, staged
  // blocks) never outlive its phase task: they live on a frame of the
  // running worker's scratch workspace (common/scratch.hpp).
  std::vector<cplx> in;  ///< owned input, then the final spectrum
  std::unique_ptr<double[]> s1_store, s2_store;  ///< uninitialized scratch
  std::size_t store_doubles = 0;  ///< pooled size of each raw store
  cplx* buf1 = nullptr;  ///< phase-1 output / phase-2 input
  cplx* buf2 = nullptr;  ///< phase-2 output / phase-3 input

  std::vector<fault::Injector> injectors;  ///< one per simulated rank

  // Per-rank accumulators; each slot written only by its rank's task.
  std::vector<abft::Stats> rank_stats;
  std::vector<TransposeStats> rank_comm;
  std::vector<double> rank_cpu;
  std::array<std::vector<double>, 3> phase_cpu;
  std::array<std::vector<double>, 3> phase_comm;
  std::array<double, 3> phase_wall{};

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

// ------------------------------------------------------- six-step helpers

/// Receiver-side check of one transposed block against the trailer its
/// sender computed (dual sums, or 2t syndrome moments under a multi-error
/// budget): repairs what it locates into the comm counters of `stats` and
/// throws UncorrectableError when the damage is not localizable.
void verify_block(cplx* block, std::size_t len, const abft::StoredSums& stored,
                  double eta, TransposeStats& stats) {
  abft::repair_region(
      stored, block, 1, nullptr, len, eta,
      {stats.comm_errors_detected, stats.comm_errors_corrected,
       stats.comm_multi_corrected},
      "block transpose: received block failed verification beyond repair");
}

// ----------------------------------------------------------------- phases

/// Bytes one transposed block puts on the link: the block alone unchecked;
/// with message checksums also the trailer (the dual pair at t = 1, the 2t
/// syndrome moments under a multi-error budget) and the sender's block
/// energy, one real that scales the receiver's threshold.
std::size_t message_bytes(const ShardedState& st) {
  if (!(st.opts.protect && st.opts.memory_ft)) return st.bsz * sizeof(cplx);
  const auto trailer = 2 * static_cast<std::size_t>(st.plan->max_errors());
  return (st.bsz + trailer) * sizeof(cplx) + sizeof(double);
}

/// One transposed block of transpose `s` (0, 1, 2), pulled straight from
/// the previous phase's shared array: the copy IS the message. A
/// checksummed pull generates the sender's dual sums and block energy
/// inside the copy pass (under a multi-error budget the 2t syndrome moments
/// follow over the copied block), then the injected kCommBlock fault (unit
/// s * p + q) and the verification hit the received data — the in-flight
/// window between sender and receiver. An unchecked pull takes the fault
/// too, and nothing verifies it. Returns the sender's sums and energy; the
/// resident block (q == r) gets them from the same copy but sends no
/// message. An unchecked pull returns zeros.
checksum::DualSumEnergy pull_block(ShardedState& st, std::size_t s,
                                   std::size_t r, std::size_t q,
                                   const cplx* src, cplx* dst, bool checksums,
                                   TransposeStats& tstats) {
  const std::size_t bsz = st.bsz;
  checksum::DualSumEnergy sent;
  if (checksums) {
    sent.sums = checksum::copy_dual_sum(dst, src, bsz, &sent.energy);
  } else {
    std::memcpy(dst, src, bsz * sizeof(cplx));
  }
  if (q == r) return sent;  // resident block: no message
  tstats.bytes_sent += message_bytes(st);
  const int t_max = st.plan->max_errors();
  abft::StoredSums stored{sent.sums};
  checksum::SyndromeSet syn;
  if (checksums && t_max > 1) {
    syn = checksum::syndrome_sum(nullptr, dst, bsz, 1, 2 * t_max,
                                 st.plan->syndrome_nodes_block());
    stored = {{}, &syn, t_max, st.plan->syndrome_nodes_block()};
  }
  ++tstats.messages_received;
  st.injectors[r].apply(fault::Phase::kCommBlock, s * st.p + q, dst, bsz);
  if (!checksums) return sent;  // silent: nothing verifies this variant
  // Scaled by the sender's energy, measured before the in-flight window: a
  // corruption of the block cannot inflate its own threshold.
  verify_block(dst, bsz, stored,
               abft::threshold(st.plan->eta_block_coeff(), sent.energy, bsz,
                               st.opts.eta_override),
               tstats);
  return sent;
}

// Phase 1: transpose1 pull + CMCG + FFT1 (bsz p-point column FFTs).
void phase1(ShardedState& st, std::size_t r, TransposeStats& tstats,
            abft::Stats& stats) {
  const ParallelOptions& opts = st.opts;
  const ParallelPlan& plan = *st.plan;
  const std::size_t p = st.p, n_loc = st.n_loc, bsz = st.bsz;
  const bool protect = opts.protect;
  const bool checksums = protect && opts.memory_ft;

  cplx* slice = st.buf1 + r * n_loc;
  scratch::Frame frame;
  const std::size_t slots = protect ? bsz : 0;
  const std::span<cplx> s1 = frame.take_zeroed<cplx>(slots);
  const std::span<cplx> s2 = frame.take_zeroed<cplx>(slots);
  const std::span<double> e_col = frame.take_zeroed<double>(slots);
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.in.data() + q * n_loc + r * bsz;
    cplx* dst = slice + q * bsz;
    pull_block(st, 0, r, q, src, dst, checksums, tstats);
    if (protect) {
      // CMCG fused into reception, accumulated in ascending q: the received
      // block is row q of the FFT1 columns, weighted by cp[q].
      checksum::fold_row(dst, bsz, plan.cp() + q, static_cast<double>(q),
                         s1.data(), s2.data(), e_col.data());
    }
  }

  // FFT1 over the bsz columns (stride bsz), staged tc at a time: one tiled
  // transpose gathers them contiguous, each runs as a sub-FFT from its
  // staged column (the Fig. 4 input backup, repaired in place on a located
  // memory fault, dual-only at every t) and a second transpose scatters the
  // results back.
  fft::Fft fftp(p);
  const std::size_t tc =
      std::max<std::size_t>(4, std::size_t{1024} / (p == 0 ? 1 : p));
  const std::span<cplx> stage = frame.take<cplx>(p * tc);
  const std::span<cplx> ostage = frame.take<cplx>(p * tc);
  for (std::size_t u0 = 0; u0 < bsz; u0 += tc) {
    const std::size_t cols = std::min(tc, bsz - u0);
    transpose_tiled(slice + u0, bsz, stage.data(), p, p, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t u = u0 + c;
      cplx* col = stage.data() + c * p;
      cplx* res = ostage.data() + c * p;
      if (!protect) {
        fftp.execute(col, res);
        continue;
      }
      const double eta = abft::threshold(plan.eta_fft1_coeff(), e_col[u], p,
                                         opts.eta_override);
      abft::SubFft unit{fftp, col, 1, res, s1[u], nullptr, eta,
                        &abft::Stats::eta_m, &st.injectors[r],
                        fault::Phase::kRankFft1Output, u,
                        "parallel ABFT: FFT1 column kept failing verification"};
      unit.repair = {{{s1[u], s2[u]}}, col, 1, plan.cp(), eta,
                     /*count_check=*/false, /*record_eta=*/false,
                     /*before_run=*/false,
                     "parallel ABFT: FFT1 input memory error not localizable"};
      abft::run_sub_fft(unit, opts.max_retries, stats);
    }
    transpose_tiled(ostage.data(), p, slice + u0, bsz, cols, p);
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

  cplx* slice = st.buf2 + r * n_loc;
  // Protected, a block is received into the staging buffer and
  // DMR-twiddled from there into the slice (the DMR multiply needs
  // disjoint source and destination).
  scratch::Frame frame;
  cplx* stage = frame.take<cplx>(protect ? bsz : 0).data();
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.buf1 + q * n_loc + r * bsz;
    cplx* dst = slice + q * bsz;
    const std::size_t j0 = r * q * bsz;
    if (protect) {
      pull_block(st, 1, r, q, src, stage, checksums, tstats);
      stats.dmr_mismatches += abft::dmr_twiddle_multiply(
          plan.twiddles(), stage, 1, dst, bsz, r, j0, q, &st.injectors[r]);
    } else {
      pull_block(st, 1, r, q, src, dst, checksums, tstats);
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
// memory guards over the final output. The guards are the sums and
// energies the p copies returned: block q keeps its within-block index
// when the adjust moves it to stride p.
void phase3(ShardedState& st, std::size_t r, TransposeStats& tstats,
            abft::Stats& stats) {
  const ParallelOptions& opts = st.opts;
  const ParallelPlan& plan = *st.plan;
  const std::size_t p = st.p, n_loc = st.n_loc, bsz = st.bsz;
  const bool checksums = opts.protect && opts.memory_ft;

  scratch::Frame frame;
  cplx* loc = frame.take<cplx>(n_loc).data();
  const std::span<checksum::DualSumEnergy> guards =
      frame.take<checksum::DualSumEnergy>(checksums ? p : 0);
  for (std::size_t q = 0; q < p; ++q) {
    const cplx* src = st.buf2 + q * n_loc + r * bsz;
    const auto sent = pull_block(st, 2, r, q, src, loc + q * bsz, checksums,
                                 tstats);
    if (checksums) guards[q] = sent;
  }

  // bsz x p scatter into natural order, u-chunked so the p-strided write
  // window (p * tu * 16 bytes) stays L1-resident instead of touching p
  // cache lines per element across the whole slice.
  cplx* out = st.in.data() + r * n_loc;
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

  for (std::size_t q = 0; q < guards.size(); ++q) {
    abft::repair_region(
        {guards[q].sums}, out + q, p, nullptr, bsz,
        abft::threshold(plan.eta_block_coeff(), guards[q].energy, bsz,
                        opts.eta_override),
        abft::RepairTally::of(stats, true),
        "parallel ABFT: final output memory error not localizable");
  }
}

void run_phase(ShardedState& st, int phase, std::size_t r) {
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

  // Modeled communication of this rank's p-1 exchanges.
  st.phase_comm[phase][r] =
      static_cast<double>(st.p - 1) * st.opts.net.cost(message_bytes(st));
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

void finalize(const std::shared_ptr<ShardedState>& st) {
  ParallelReport rep;
  for (std::size_t r = 0; r < st->p; ++r) {
    rep.stats += st->rank_stats[r];
    rep.comm_stats += st->rank_comm[r];
    rep.bytes_per_rank =
        std::max(rep.bytes_per_rank, st->rank_comm[r].bytes_sent);
    // Algorithm 3: with overlap a phase's messages ride under its compute,
    // so the phase costs the longer of the two; blocking pays both.
    double comm_total = 0.0, span = 0.0;
    for (int ph = 0; ph < 3; ++ph) {
      const double cpu = st->phase_cpu[ph][r], comm = st->phase_comm[ph][r];
      comm_total += comm;
      span += st->opts.overlap ? std::max(cpu, comm) : cpu + comm;
    }
    rep.max_compute = std::max(rep.max_compute, st->rank_cpu[r]);
    rep.max_comm = std::max(rep.max_comm, comm_total);
    rep.makespan = std::max(rep.makespan, span);
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
      for (const auto& ep : rep.exceptions) {
        if (ep) {
          first = ep;
          break;
        }
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
  // Rank phases run at high priority: a phase fan-out is continuation
  // work for a transform that already holds scratch and partial state, so
  // it must not starve behind newly arriving batches. Phases submitted from
  // worker callbacks also bypass the admission cap (see BatchEngine's
  // pool-thread rule), so a full queue cannot deadlock the chain.
  engine::SubmitOptions rank_submit;
  rank_submit.priority = engine::Priority::kHigh;
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
  // Throws std::invalid_argument on bad geometry or an unsupported n_loc.
  auto plan =
      ParallelPlan::get(p, n, opts.protect, opts.max_correctable_errors);

  auto st = std::make_shared<ShardedState>();
  st->p = p;
  st->n = n;
  st->n_loc = n / p;
  st->bsz = n / p / p;
  st->opts = opts;
  st->plan = std::move(plan);
  st->eng = engine != nullptr ? engine : &engine::BatchEngine::shared();
  st->in = std::move(input);
  st->store_doubles = 2 * n;
  st->s1_store = scratch_take(st->store_doubles);
  st->s2_store = scratch_take(st->store_doubles);
  st->buf1 = reinterpret_cast<cplx*>(st->s1_store.get());
  st->buf2 = reinterpret_cast<cplx*>(st->s2_store.get());
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

ParallelFuture::ParallelFuture(std::shared_ptr<detail::ShardedState> state)
    : state_(std::move(state)) {}

bool ParallelFuture::ready() const {
  ftfft::detail::require(state_ != nullptr, "ParallelFuture: invalid future");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

void ParallelFuture::wait() const {
  ftfft::detail::require(state_ != nullptr, "ParallelFuture: invalid future");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->ready; });
}

std::vector<cplx> ParallelFuture::get(ParallelReport* report) {
  wait();
  auto st = std::move(state_);  // one-shot
  if (st->error) std::rethrow_exception(st->error);
  if (report != nullptr) *report = st->report;
  return std::move(st->in);
}

}  // namespace ftfft::parallel
