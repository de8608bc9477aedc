#include "parallel/parallel_fft.hpp"

#include <cstring>
#include <mutex>
#include <stdexcept>

#include "abft/dmr.hpp"
#include "checksum/dot.hpp"
#include "common/error.hpp"
#include "fft/fft.hpp"
#include "abft/inplace.hpp"
#include "parallel/parallel_plan.hpp"

namespace ftfft::parallel {
namespace {

constexpr int kTagT1 = 100;
constexpr int kTagT2 = 200;
constexpr int kTagT3 = 300;

struct RankOutcome {
  abft::Stats stats;
  TransposeStats comm;
};

// The whole per-rank computation, written as a class to keep the six steps
// readable.
class RankRun {
 public:
  RankRun(RankCtx& ctx, const std::vector<cplx>& input, std::vector<cplx>& out,
          const ParallelOptions& opts, const ParallelPlan& plan)
      : ctx_(ctx),
        input_(input),
        out_(out),
        opts_(opts),
        plan_(plan),
        p_(ctx.nranks()),
        r_(ctx.rank()),
        n_(input.size()),
        n_loc_(n_ / ctx.nranks()),
        bsz_(n_loc_ / ctx.nranks()) {}

  RankOutcome run() {
    local_.resize(n_loc_);
    std::memcpy(local_.data(), input_.data() + r_ * n_loc_,
                n_loc_ * sizeof(cplx));
    if (opts_.protect) {
      s1_.assign(bsz_, cplx{0, 0});
      s2_.assign(bsz_, cplx{0, 0});
      e_col_.assign(bsz_, 0.0);
    }
    ctx_.injector().apply(fault::Phase::kRankLocalInput, 0, local_.data(),
                          n_loc_);

    transpose1();
    fft1();
    transpose2_and_twiddle();
    fft2();
    transpose3();
    local_adjust();

    ctx_.barrier();
    std::memcpy(out_.data() + r_ * n_loc_, local_.data(),
                n_loc_ * sizeof(cplx));
    return RankOutcome{stats_, comm_};
  }

 private:
  // Step 1: deliver column data; fuse the FFT1 input-checksum generation
  // (CMCG) into block reception so overlap can hide it.
  void transpose1() {
    TransposeOptions t = transpose_options(1);
    if (opts_.protect) {
      t.on_block = [this](std::size_t src, cplx* block, std::size_t len) {
        detail::fold_fft1_checksums(plan_, src, block, len, s1_.data(),
                                    s2_.data(), e_col_.data());
      };
    }
    block_transpose(ctx_, local_.data(), bsz_, t, comm_, kTagT1);
  }

  // Step 2: bsz p-point FFTs over columns (stride bsz), each protected by
  // its own checksum with the gathered buffer as restart backup (Fig. 4).
  void fft1() {
    ctx_.clock().begin_compute();
    fft::Fft fftp(p_);
    detail::fft1_columns(plan_, opts_, fftp, local_.data(), bsz_, 0, bsz_,
                         s1_.data(), s2_.data(), e_col_.data(),
                         ctx_.injector(), stats_);
    ctx_.clock().end_compute();
  }

  // Step 3: redistribute rows for FFT2 and apply the inter-layer twiddle
  // omega_N^(i * r) to every received block, DMR-protected and fused into
  // the reception pipeline.
  void transpose2_and_twiddle() {
    TransposeOptions t = transpose_options(2);
    std::vector<cplx> tmp(bsz_);
    t.on_block = [this, &tmp](std::size_t src, cplx* block, std::size_t len) {
      const std::size_t j0 = r_ * src * bsz_;
      if (opts_.protect) {
        std::memcpy(tmp.data(), block, len * sizeof(cplx));
        stats_.dmr_mismatches += abft::dmr_twiddle_multiply(
            plan_.twiddles(), tmp.data(), 1, block, len, r_, j0, src,
            &ctx_.injector());
      } else {
        abft::twiddle_multiply(plan_.twiddles(), block, len, r_, j0);
      }
    };
    block_transpose(ctx_, local_.data(), bsz_, t, comm_, kTagT2);
  }

  // Step 4: one n_loc-point in-place FFT per rank, protected by the
  // three-layer k*r*k scheme.
  void fft2() {
    ctx_.clock().begin_compute();
    if (opts_.protect) {
      abft::Options aopts = abft::Options::online_opt(opts_.memory_ft);
      aopts.eta_override = opts_.eta_override;
      aopts.max_retries = opts_.max_retries;
      aopts.injector = &ctx_.injector();
      abft::inplace_online_transform(local_.data(), *plan_.fft2_plan(), aopts,
                                     stats_);
    } else {
      fft::Fft engine(n_loc_);
      engine.execute_inplace(local_.data());
    }
    ctx_.clock().end_compute();
  }

  // Step 5: deliver each rank its slice of the final spectrum.
  void transpose3() {
    TransposeOptions t = transpose_options(3);
    block_transpose(ctx_, local_.data(), bsz_, t, comm_, kTagT3);
  }

  // Step 6: local bsz x p transpose into natural order. Per-block dual
  // checksums are generated before the permutation; a block's elements move
  // from stride 1 to stride p but keep their within-block index, so the
  // same checksums localize (and correct) a memory fault hitting the final
  // output after the adjustment.
  void local_adjust() {
    ctx_.clock().begin_compute();
    const auto guards = detail::adjust_guards(plan_, opts_, local_.data());
    std::vector<cplx> adjusted(n_loc_);
    for (std::size_t q = 0; q < p_; ++q) {
      for (std::size_t u = 0; u < bsz_; ++u) {
        adjusted[u * p_ + q] = local_[q * bsz_ + u];
      }
    }
    local_.swap(adjusted);
    ctx_.injector().apply(fault::Phase::kFinalOutput, 0, local_.data(),
                          n_loc_);
    detail::verify_adjusted(local_.data(), guards, plan_, opts_, stats_);
    ctx_.clock().end_compute();
  }

  // Options for the transpose of six-step phase `phase`. The blocks hold
  // intermediate values whose scale grows along the pipeline, so the block
  // threshold is a plain-summation one on the current local data scale.
  TransposeOptions transpose_options(int phase) {
    TransposeOptions t;
    t.checksums = opts_.protect && opts_.memory_ft;
    t.overlap = opts_.overlap;
    t.eta = detail::block_eta(plan_, opts_.eta_override, local_.data());
    t.max_retries = opts_.max_retries;
    t.max_errors = plan_.max_errors();
    t.syndrome_nodes = plan_.syndrome_nodes_block();
    t.phase = phase;
    return t;
  }

  RankCtx& ctx_;
  const std::vector<cplx>& input_;
  std::vector<cplx>& out_;
  const ParallelOptions& opts_;
  const ParallelPlan& plan_;
  std::size_t p_, r_, n_, n_loc_, bsz_;

  std::vector<cplx> local_;
  std::vector<cplx> s1_, s2_;     // per-column CMCG slots
  std::vector<double> e_col_;     // per-column energy
  abft::Stats stats_;
  TransposeStats comm_;
};

}  // namespace

std::vector<cplx> parallel_fft(
    std::size_t p, const std::vector<cplx>& input, const ParallelOptions& opts,
    ParallelReport* report,
    const std::function<void(std::size_t, fault::Injector&)>& arm) {
  const std::size_t n = input.size();
  detail::require(p >= 2, "parallel_fft: need at least 2 ranks");
  detail::require(p % 3 != 0,
                  "parallel_fft: rank count divisible by 3 degenerates the "
                  "checksum encoding");
  detail::require(n % (p * p) == 0,
                  "parallel_fft: N must be divisible by p^2");

  // One cached plan per call, shared read-only by every rank thread — the
  // rA vector, FFT2 protection state and sub-FFT plan trees stop being
  // rebuilt per rank per call.
  const auto plan =
      ParallelPlan::get(p, n, opts.protect, opts.max_correctable_errors);

  SimComm comm(p, opts.net, opts.seed);
  if (arm) {
    for (std::size_t r = 0; r < p; ++r) arm(r, comm.injector(r));
  }

  std::vector<cplx> out(n);
  std::mutex agg_mu;
  ParallelReport agg;
  comm.run([&](RankCtx& ctx) {
    RankRun run(ctx, input, out, opts, *plan);
    const RankOutcome outcome = run.run();
    std::scoped_lock lock(agg_mu);
    agg.stats += outcome.stats;
    agg.comm_stats += outcome.comm;
    agg.bytes_per_rank = std::max(agg.bytes_per_rank, outcome.comm.bytes_sent);
  });

  agg.makespan = comm.makespan();
  for (const auto& rr : comm.reports()) {
    agg.max_compute = std::max(agg.max_compute, rr.compute_seconds);
    agg.max_comm = std::max(agg.max_comm, rr.comm_seconds);
  }
  if (report != nullptr) *report = agg;
  return out;
}

}  // namespace ftfft::parallel
