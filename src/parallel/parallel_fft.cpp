#include "parallel/parallel_fft.hpp"

#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "abft/dmr.hpp"
#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/weights.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "fft/fft.hpp"
#include "abft/inplace.hpp"
#include "parallel/parallel_plan.hpp"
#include "roundoff/model.hpp"

namespace ftfft::parallel {
namespace {

using checksum::DualSum;
using detail::sigma_of;

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
    TransposeOptions t;
    t.checksums = opts_.protect && opts_.memory_ft;
    t.overlap = opts_.overlap;
    t.eta = block_eta();
    t.max_retries = opts_.max_retries;
    t.max_errors = plan_.max_errors();
    t.syndrome_nodes = plan_.syndrome_nodes_block();
    t.phase = 1;
    if (opts_.protect) {
      t.on_block = [this](std::size_t src, cplx* block, std::size_t len) {
        const cplx w = plan_.cp()[src];
        const double sd = static_cast<double>(src);
        for (std::size_t u = 0; u < len; ++u) {
          const cplx pterm = cmul(w, block[u]);
          s1_[u] += pterm;
          s2_[u] += sd * pterm;
          e_col_[u] += norm2(block[u]);
        }
      };
    }
    block_transpose(ctx_, local_.data(), bsz_, t, comm_, kTagT1);
  }

  // Step 2: bsz p-point FFTs over columns (stride bsz), each protected by
  // its own checksum with the gathered buffer as restart backup (Fig. 4).
  void fft1() {
    ctx_.clock().begin_compute();
    fft::Fft fftp(p_);
    std::vector<cplx> buf(p_), res(p_);
    for (std::size_t u = 0; u < bsz_; ++u) {
      for (std::size_t t = 0; t < p_; ++t) buf[t] = local_[t * bsz_ + u];
      if (!opts_.protect) {
        fftp.execute(buf.data(), res.data());
        for (std::size_t t = 0; t < p_; ++t) local_[t * bsz_ + u] = res[t];
        continue;
      }
      // eta_from_coeff(practical_eta_coeff(p), s) == practical_eta(p, s)
      // bit-for-bit (roundoff/model.hpp), so reading the coefficient off
      // the plan changes nothing but the per-column trig re-derivation.
      const double eta = opts_.eta_override > 0.0
                             ? opts_.eta_override
                             : roundoff::eta_from_coeff(
                                   plan_.eta_fft1_coeff(),
                                   sigma_of(e_col_[u], p_));
      stats_.eta_m = std::max(stats_.eta_m, eta);
      const DualSum stored{s1_[u], s2_[u]};
      for (int attempt = 0;; ++attempt) {
        fftp.execute(buf.data(), res.data());
        ctx_.injector().apply(fault::Phase::kRankFft1Output, u, res.data(),
                              p_);
        const cplx rx = checksum::omega3_weighted_sum(res.data(), p_);
        ++stats_.verifications;
        if (std::abs(rx - s1_[u]) <= eta) break;
        if (attempt >= opts_.max_retries) {
          throw UncorrectableError(
              "parallel ABFT: FFT1 column kept failing verification");
        }
        ++stats_.sub_fft_retries;
        // Memory-vs-compute discrimination on the backed-up input.
        const auto rep = checksum::repair_single_error(
            stored, buf.data(), 1, plan_.cp(), p_, eta, opts_.max_retries);
        if (rep.mismatch) {
          ++stats_.mem_errors_detected;
          if (!rep.corrected) {
            throw UncorrectableError(
                "parallel ABFT: FFT1 input memory error not localizable");
          }
          ++stats_.mem_errors_corrected;
        } else {
          ++stats_.comp_errors_detected;
        }
      }
      for (std::size_t t = 0; t < p_; ++t) local_[t * bsz_ + u] = res[t];
    }
    ctx_.clock().end_compute();
  }

  // Step 3: redistribute rows for FFT2 and apply the inter-layer twiddle
  // omega_N^(i * r) to every received block, DMR-protected and fused into
  // the reception pipeline.
  void transpose2_and_twiddle() {
    TransposeOptions t;
    t.checksums = opts_.protect && opts_.memory_ft;
    t.overlap = opts_.overlap;
    t.eta = block_eta();
    t.max_retries = opts_.max_retries;
    t.max_errors = plan_.max_errors();
    t.syndrome_nodes = plan_.syndrome_nodes_block();
    t.phase = 2;
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
    TransposeOptions t;
    t.checksums = opts_.protect && opts_.memory_ft;
    t.overlap = opts_.overlap;
    t.eta = block_eta();
    t.max_retries = opts_.max_retries;
    t.max_errors = plan_.max_errors();
    t.syndrome_nodes = plan_.syndrome_nodes_block();
    t.phase = 3;
    block_transpose(ctx_, local_.data(), bsz_, t, comm_, kTagT3);
  }

  // Step 6: local bsz x p transpose into natural order. Per-block dual
  // checksums are generated before the permutation; a block's elements move
  // from stride 1 to stride p but keep their within-block index, so the
  // same checksums localize (and correct) a memory fault hitting the final
  // output after the adjustment.
  void local_adjust() {
    ctx_.clock().begin_compute();
    std::vector<DualSum> guards;
    const bool guard = opts_.protect && opts_.memory_ft;
    if (guard) {
      guards.resize(p_);
      for (std::size_t q = 0; q < p_; ++q) {
        guards[q] = checksum::dual_weighted_sum(
            nullptr, local_.data() + q * bsz_, bsz_);
      }
    }
    std::vector<cplx> adjusted(n_loc_);
    for (std::size_t q = 0; q < p_; ++q) {
      for (std::size_t u = 0; u < bsz_; ++u) {
        adjusted[u * p_ + q] = local_[q * bsz_ + u];
      }
    }
    local_.swap(adjusted);
    ctx_.injector().apply(fault::Phase::kFinalOutput, 0, local_.data(),
                          n_loc_);
    if (guard) {
      const double eta = block_eta();
      for (std::size_t q = 0; q < p_; ++q) {
        const auto rep = checksum::repair_single_error(
            guards[q], local_.data() + q, p_, nullptr, bsz_, eta,
            opts_.max_retries);
        ++stats_.verifications;
        if (rep.mismatch) {
          ++stats_.mem_errors_detected;
          if (!rep.corrected) {
            throw UncorrectableError(
                "parallel ABFT: final output memory error not localizable");
          }
          ++stats_.mem_errors_corrected;
        }
      }
    }
    ctx_.clock().end_compute();
  }

  // Threshold for one transposed block: the block holds intermediate values
  // whose scale grows along the pipeline; a plain-summation threshold on the
  // local data scale is sufficient for all three transposes.
  double block_eta() {
    if (opts_.eta_override > 0.0) return opts_.eta_override;
    const double sigma =
        sigma_of(checksum::robust_energy(local_.data(), n_loc_), n_loc_);
    // Plan-cached coefficient; identical to practical_eta_memory(bsz, sigma)
    // for protected runs (unprotected runs never read the threshold).
    return roundoff::eta_from_coeff(plan_.eta_block_coeff(), sigma);
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
    agg.stats.comp_errors_detected += outcome.stats.comp_errors_detected;
    agg.stats.mem_errors_detected += outcome.stats.mem_errors_detected;
    agg.stats.mem_errors_corrected += outcome.stats.mem_errors_corrected;
    agg.stats.multi_errors_corrected += outcome.stats.multi_errors_corrected;
    agg.stats.sub_fft_retries += outcome.stats.sub_fft_retries;
    agg.stats.full_restarts += outcome.stats.full_restarts;
    agg.stats.dmr_mismatches += outcome.stats.dmr_mismatches;
    agg.stats.verifications += outcome.stats.verifications;
    agg.stats.eta_m = std::max(agg.stats.eta_m, outcome.stats.eta_m);
    agg.stats.eta_k = std::max(agg.stats.eta_k, outcome.stats.eta_k);
    agg.stats.eta_mem = std::max(agg.stats.eta_mem, outcome.stats.eta_mem);
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
