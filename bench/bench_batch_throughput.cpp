// Throughput of the batched protected-FFT engine.
//
// Not a paper figure: this measures the production-path question the paper
// leaves open — how fast can many independent online-protected transforms
// run at once? A batch of lanes is executed (a) as a serial loop on one
// thread and (b) on BatchEngine at several worker counts; the table reports
// transforms/second and the speedup over the serial loop. A second table
// splits a batch into ABFT setup vs transform time to show the
// ProtectionPlan amortization (setup once per batch instead of per lane),
// and a third times single transforms on the recursive codelet tree against
// the in-place engine at 2^7..2^12, the crossover behind
// fft::kInplaceEngineMinSize, with a column for the engine's bit-reversed
// entry point (the protected sub-FFTs' path) at 2^8..2^12. A fourth table
// measures
// the async submission pipeline: the same work split into many jobs,
// submitted blocking one-by-one vs queued all at once through
// submit_batch futures (workers flow into the next job while stragglers
// finish the previous one). The run ends with the per-cache plan
// statistics snapshot (ftfft::plan_cache_stats) so FTFFT_PLAN_CACHE_CAP
// can be tuned from observed hit/miss/eviction rates.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "abft/protection_plan.hpp"
#include "bench_util.hpp"
#include "checksum/weights.hpp"
#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "fft/executor.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "fft/plan.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace ftfft;

double batch_seconds(engine::BatchEngine& eng,
                     const std::vector<std::vector<cplx>>& inputs,
                     std::size_t n, int reps) {
  const std::size_t lanes = inputs.size();
  std::vector<std::vector<cplx>> ins(lanes);
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  engine::BatchOptions opts;
  opts.abft = abft::Options::online_opt(true);
  return bench::time_best(reps, [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      ins[l] = inputs[l];
      batch[l] = {ins[l].data(), outs[l].data(), nullptr};
    }
    (void)eng.submit_batch(batch, n, opts).get();
  });
}

double serial_seconds(const std::vector<std::vector<cplx>>& inputs,
                      std::size_t n, int reps) {
  const std::size_t lanes = inputs.size();
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  const abft::Options opts = abft::Options::online_opt(true);
  return bench::time_best(reps, [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      auto x = inputs[l];
      abft::Stats stats;
      abft::protected_transform(x.data(), outs[l].data(), n, opts, stats);
    }
  });
}

}  // namespace

int main() {
  bench::banner("batch engine throughput",
                "production extension (no paper figure); TurboFFT-style "
                "batched fault-tolerant execution");

  const std::size_t n = scaled_size(4096);
  const std::size_t lanes = 64;
  const int reps = static_cast<int>(scaled_runs(5));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<std::vector<cplx>> inputs;
  inputs.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    inputs.push_back(
        random_vector(n, InputDistribution::kUniform, 1000 + l));
  }

  std::printf("batch: %zu lanes x %zu-point online-protected FFTs "
              "(hardware_concurrency = %u, SIMD backend: %s)\n\n",
              lanes, n, hw, simd::simd_backend_name());

  const double t_serial = serial_seconds(inputs, n, reps);
  TablePrinter table({"config", "time (ms)", "transforms/s", "speedup"});
  table.add_row({"serial loop (1 thread)",
                 TablePrinter::fixed(t_serial * 1e3, 2),
                 TablePrinter::fixed(static_cast<double>(lanes) / t_serial, 0),
                 "1.00"});

  std::vector<unsigned> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  for (unsigned t : thread_counts) {
    engine::BatchEngine eng(t);
    const double sec = batch_seconds(eng, inputs, n, reps);
    char label[64];
    std::snprintf(label, sizeof label, "BatchEngine (%u threads)", t);
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2f", t_serial / sec);
    table.add_row({label, TablePrinter::fixed(sec * 1e3, 2),
                   TablePrinter::fixed(static_cast<double>(lanes) / sec, 0),
                   speedup});
  }
  table.print();

  // ------------------------------------------------- setup vs transform
  // The per-(n, options) ABFT setup — rA checksum vectors for both layers,
  // balanced split, threshold coefficients, staging layout — lives in a
  // cached ProtectionPlan. The batch engine resolves it once per batch, so
  // the old per-lane rebuild cost (lanes x build) collapses to one build.
  std::printf("\nsetup vs transform split (ProtectionPlan amortization)\n\n");
  const abft::Options popts = abft::Options::online_opt(true);
  const auto pplan = abft::ProtectionPlan::get(n, abft::Scheme::kOnline,
                                               popts);
  // What every lane used to rebuild per call: DMR-protected rA generation
  // for both layers (the weight cache is bypassed on purpose — this is the
  // pre-plan cost).
  const double t_build = bench::time_best(
      static_cast<int>(scaled_runs(20)), [&] {
        const auto cm = checksum::input_checksum_vector_dmr(pplan->m());
        const auto ck = checksum::input_checksum_vector_dmr(pplan->k());
        (void)cm;
        (void)ck;
      });
  engine::BatchEngine warm_eng(hw);
  const double t_batch = batch_seconds(warm_eng, inputs, n, reps);
  // Each row's share is measured against its own transform wall time: the
  // per-lane rebuild belonged to the serial-loop world (t_serial), the
  // once-per-batch build to the multi-threaded engine batch (t_batch).
  TablePrinter split(
      {"path", "setup (us/batch)", "transform (ms)", "setup share"});
  const double setup_percall = static_cast<double>(lanes) * t_build;
  char share_percall[32], share_batched[32];
  std::snprintf(share_percall, sizeof share_percall, "%.1f%%",
                100.0 * setup_percall / (setup_percall + t_serial));
  std::snprintf(share_batched, sizeof share_batched, "%.2f%%",
                100.0 * t_build / (t_build + t_batch));
  split.add_row({"per-call (serial loop, setup per lane)",
                 TablePrinter::fixed(setup_percall * 1e6, 1),
                 TablePrinter::fixed(t_serial * 1e3, 2), share_percall});
  split.add_row({"batched (one ProtectionPlan per batch)",
                 TablePrinter::fixed(t_build * 1e6, 1),
                 TablePrinter::fixed(t_batch * 1e3, 2), share_batched});
  split.print();

  // Counter proof of the amortization: a repeat batch of the same size must
  // perform zero rA generation passes.
  {
    const auto before = checksum::ra_generations();
    const double unused = batch_seconds(warm_eng, inputs, n, 1);
    (void)unused;
    std::printf("\nrA generation passes during a warm %zu-lane batch: %llu "
                "(setup fully amortized)\n",
                lanes,
                static_cast<unsigned long long>(checksum::ra_generations() -
                                                before));
  }

  // --------------------------------------------------- async pipelining
  // A serving layer rarely sees one giant batch; it sees a stream of small
  // jobs. Submitting them all and collecting futures keeps the worker pool
  // saturated across job boundaries, where the blocking path inserts a
  // full drain between consecutive jobs.
  {
    const std::size_t jobs = 8;
    const std::size_t lanes_per_job = lanes / jobs;
    engine::BatchEngine eng(hw);
    engine::BatchOptions opts;
    opts.abft = abft::Options::online_opt(true);
    std::vector<std::vector<cplx>> ins(lanes);
    std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
    std::vector<engine::Lane> all_lanes(lanes);
    auto reset_lanes = [&] {
      for (std::size_t l = 0; l < lanes; ++l) {
        ins[l] = inputs[l];
        all_lanes[l] = {ins[l].data(), outs[l].data(), nullptr};
      }
    };
    const double t_blocking = bench::time_best(reps, [&] {
      reset_lanes();
      for (std::size_t j = 0; j < jobs; ++j) {
        (void)eng.submit_batch(
                     {all_lanes.data() + j * lanes_per_job, lanes_per_job}, n,
                     opts)
            .get();
      }
    });
    const double t_pipelined = bench::time_best(reps, [&] {
      reset_lanes();
      std::vector<engine::BatchFuture> futures;
      futures.reserve(jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        futures.push_back(eng.submit_batch(
            {all_lanes.data() + j * lanes_per_job, lanes_per_job}, n, opts));
      }
      for (auto& f : futures) (void)f.get();
    });
    std::printf("\nasync pipeline: %zu jobs x %zu lanes on %u threads\n\n",
                jobs, lanes_per_job, hw);
    TablePrinter pipe({"submission", "time (ms)", "transforms/s", "speedup"});
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2f", t_blocking / t_pipelined);
    pipe.add_row({"blocking loop (drain per job)",
                  TablePrinter::fixed(t_blocking * 1e3, 2),
                  TablePrinter::fixed(static_cast<double>(lanes) / t_blocking,
                                      0),
                  "1.00"});
    pipe.add_row({"queued futures (submit all, then get)",
                  TablePrinter::fixed(t_pipelined * 1e3, 2),
                  TablePrinter::fixed(static_cast<double>(lanes) / t_pipelined,
                                      0),
                  speedup});
    pipe.print();
  }

  // ----------------------------------------------- scheduler observability
  // The per-class counters a deployment scrapes: replay the job stream as
  // mixed-priority traffic (every third job high, every third low) and
  // print the per-class scheduler snapshot — the feed for
  // FTFFT_ENGINE_QUEUE_CAP.
  {
    const std::size_t jobs = 24;
    const std::size_t lanes_per_job = 4;
    engine::BatchEngine eng(hw);
    engine::BatchOptions opts;
    opts.abft = abft::Options::online_opt(true);
    std::vector<std::vector<cplx>> ins(jobs * lanes_per_job);
    std::vector<std::vector<cplx>> outs(jobs * lanes_per_job,
                                        std::vector<cplx>(n));
    std::vector<engine::Lane> all_lanes(jobs * lanes_per_job);
    for (std::size_t l = 0; l < all_lanes.size(); ++l) {
      ins[l] = inputs[l % lanes];
      all_lanes[l] = {ins[l].data(), outs[l].data(), nullptr};
    }
    std::vector<engine::BatchFuture> futures;
    futures.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      opts.submit.priority = static_cast<engine::Priority>(j % 3);
      futures.push_back(eng.submit_batch(
          {all_lanes.data() + j * lanes_per_job, lanes_per_job}, n, opts));
    }
    for (auto& f : futures) (void)f.get();
    const auto st = eng.scheduler_stats();
    std::printf("\nper-class scheduler statistics (%zu mixed-priority jobs, "
                "queue cap %s)\n\n",
                jobs,
                st.queue_cap == 0 ? "unbounded"
                                  : std::to_string(st.queue_cap).c_str());
    TablePrinter sched({"class", "jobs", "lanes", "queue p50 (us)",
                        "queue p99 (us)", "run p99 (ms)"});
    for (const auto p : {engine::Priority::kHigh, engine::Priority::kNormal,
                         engine::Priority::kLow}) {
      const auto& c = st.at(p);
      sched.add_row({engine::priority_name(p), std::to_string(c.jobs_completed),
                     std::to_string(c.lanes_completed),
                     TablePrinter::fixed(c.queue_wait.p50 * 1e6, 1),
                     TablePrinter::fixed(c.queue_wait.p99 * 1e6, 1),
                     TablePrinter::fixed(c.run.p99 * 1e3, 2)});
    }
    sched.print();
  }

  // The measurement behind fft::kInplaceEngineMinSize: below the crossover
  // the recursive codelet tree beats the in-place engine, above it the
  // engine wins. Both run out of place on the same input. The bit-reversed
  // column times the engine from a pre-permuted copy of that input
  // (forward_bit_reversed, what the protected schemes' staged sub-FFTs
  // run), from 2^8 up.
  std::printf("\nrecursive tree vs in-place engine (single transform, "
              "engine from n = %zu)\n\n",
              fft::kInplaceEngineMinSize);
  TablePrinter kernel_table({"n", "tree (us)", "engine (us)", "bit-rev (us)",
                             "tree / engine", "tree / bit-rev"});
  for (std::size_t kn = 1u << 7; kn <= 1u << 12; kn *= 2) {
    const auto tree = fft::make_plan(kn);
    const auto plan = fft::InplaceRadix2Plan::get(kn);
    const auto base = random_vector(kn, InputDistribution::kUniform, 7);
    std::vector<cplx> work(kn), reversed(kn);
    for (std::size_t i = 0; i < kn; ++i) {
      reversed[i] = base[plan->bit_reversal()[i]];
    }
    // Each timed sample runs `calls` transforms so sub-microsecond sizes
    // stay well above the timer's resolution.
    const int kernel_reps = static_cast<int>(scaled_runs(40));
    const std::size_t calls = (1u << 16) / kn;
    const double tt = bench::time_best(kernel_reps, [&] {
      for (std::size_t c = 0; c < calls; ++c) {
        fft::execute_plan(*tree, base.data(), 1, work.data(), 1, nullptr);
      }
    }) / static_cast<double>(calls);
    const double te = bench::time_best(kernel_reps, [&] {
      for (std::size_t c = 0; c < calls; ++c) {
        plan->forward_copy(base.data(), work.data());
      }
    }) / static_cast<double>(calls);
    std::string tb = "-", ratio_b = "-";
    if (kn >= 1u << 8) {
      const double b = bench::time_best(kernel_reps, [&] {
        for (std::size_t c = 0; c < calls; ++c) {
          plan->forward_bit_reversed(reversed.data(), work.data());
        }
      }) / static_cast<double>(calls);
      tb = TablePrinter::fixed(b * 1e6, 2);
      ratio_b = TablePrinter::fixed(tt / b, 2);
    }
    kernel_table.add_row({bench::size_label(kn),
                          TablePrinter::fixed(tt * 1e6, 2),
                          TablePrinter::fixed(te * 1e6, 2), tb,
                          TablePrinter::fixed(tt / te, 2), ratio_b});
  }
  kernel_table.print();

  // ------------------------------------------------- plan cache traffic
  // The tuning feed for FTFFT_PLAN_CACHE_CAP: steady evictions with a low
  // hit rate mean the bound is thrashing for this traffic mix.
  std::printf("\nplan cache statistics (FTFFT_PLAN_CACHE_CAP = %zu)\n\n",
              plan_cache_capacity());
  TablePrinter caches(
      {"cache", "size", "capacity", "hits", "misses", "evictions"});
  for (const PlanCacheStats& s : plan_cache_stats()) {
    caches.add_row({s.name, std::to_string(s.size),
                    s.capacity == 0 ? "unbounded" : std::to_string(s.capacity),
                    std::to_string(s.hits), std::to_string(s.misses),
                    std::to_string(s.evictions)});
  }
  caches.print();
  return 0;
}
