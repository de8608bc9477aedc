#include "rounds.hpp"

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace ab = ftfft::abft;
using ftfft::FtPlan;
using ftfft::PlanConfig;
using ftfft::Protection;
using ftfft::fault::FaultSpec;
using ftfft::fault::Phase;

namespace {

// Ranks of the sharded six-step transform (N must be divisible by p^2).
constexpr std::size_t kRanks = 16;
// At least this many distinct inputs per run, so a seed whose draw of one
// input flips an op between pass and refusal moves fail_ratio by little.
constexpr std::size_t kMinPool = 16;
constexpr std::size_t kMaxMessages = 5;

// Fault phases each scheme's model covers and the library's campaigns prove
// correctable; unit 0 is the only unit of the whole-array phases. Rounds
// cycle through the list, so every run has the same mix. A fault that
// forces a whole-transform restart roughly doubles an op, so restart
// phases get one slot in three: an even split would put the median
// between two modes, where it flips from run to run.
struct PhaseChoice {
  Phase phase;
  bool per_unit;
};
std::vector<PhaseChoice> phases_for(int e) {
  switch (e) {
    case kOnlineComp:
      return {{Phase::kMFftOutput, true},
              {Phase::kKFftOutput, true},
              {Phase::kTwiddleDmrCopy, true}};
    case kOnlineMem:
      return {{Phase::kMFftOutput, true},
              {Phase::kKFftOutput, true},
              {Phase::kTwiddleDmrCopy, true},
              {Phase::kInputAfterChecksum, false},
              {Phase::kIntermediate, false}};
    case kInplace:
      return {{Phase::kMFftOutput, true},
              {Phase::kKFftOutput, true},
              {Phase::kTwiddleDmrCopy, true},
              {Phase::kInputAfterChecksum, false}};
    case kOffline:
      return {{Phase::kWholeFftOutput, false},
              {Phase::kInputAfterChecksum, false},
              {Phase::kInputAfterChecksum, false}};
    case kR2c:
      return {{Phase::kRealPostPass, false},
              {Phase::kMFftOutput, true},
              {Phase::kMFftOutput, true}};
    default:
      return {};
  }
}

// Two corrupted elements in one checksum slot (elements j and j + k share
// slot j of the online scheme's input checksums).
void schedule_burst(ftfft::fault::Injector& inj, std::size_t j,
                    std::size_t k) {
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, j,
                                     {7.0, 1.0}));
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, j + k,
                                     {-2.0, 6.0}));
}

}  // namespace

std::uint64_t plan_counter(bool verifications) {
  std::uint64_t sum = 0;
  for (const auto& s : ftfft::plan_cache_stats()) {
    sum += verifications ? s.verifications : s.misses;
  }
  return sum;
}

const char* entry_name(int e) {
  static constexpr const char* kNames[kEntryCount] = {
      "plain",  "online_comp", "online_mem", "inplace", "offline",
      "r2c_plain", "r2c",      "sharded",    "canary"};
  return e >= 0 && e < kEntryCount ? kNames[e] : "?";
}

const char* entry_layer(int e) {
  switch (e) {
    case kPlain:
    case kR2cPlain:
      return "fft";
    case kSharded:
      return "parallel";
    default:
      return "abft";
  }
}

void OpTally::record(Outcome o, const std::string& what) {
  ++attempted;
  switch (o) {
    case Outcome::kOk: ++ok; return;
    case Outcome::kRefused: ++refused; return;
    case Outcome::kWrong: ++wrong; break;
    case Outcome::kError: ++errors; break;
  }
  if (messages.size() < kMaxMessages) {
    messages.push_back(std::string(outcome_name(o)) + ": " + what);
  }
}

void OpTally::add_stats(const ab::Stats& s) {
  ++protected_ops;
  stats.comp_errors_detected += s.comp_errors_detected;
  stats.mem_errors_detected += s.mem_errors_detected;
  stats.mem_errors_corrected += s.mem_errors_corrected;
  stats.multi_errors_corrected += s.multi_errors_corrected;
  stats.sub_fft_retries += s.sub_fft_retries;
  stats.full_restarts += s.full_restarts;
  stats.dmr_mismatches += s.dmr_mismatches;
  stats.verifications += s.verifications;
}

RoundRunner::RoundRunner(RoundSpec spec) : spec_(std::move(spec)) {
  const std::size_t n = spec_.n;
  if (n < kRanks * kRanks || (n & (n - 1)) != 0) {
    throw std::invalid_argument("rounds: n must be a power of two >= 256");
  }
  const std::size_t families = spec_.families.size();
  const std::size_t variants = (kMinPool + families - 1) / families;
  for (std::size_t v = 0; v < variants; ++v) {
    for (const Family f : spec_.families) {
      const std::uint64_t s = mix_seed(spec_.seed, static_cast<int>(f), v);
      pool_.push_back({f, make_input(f, n, s), {},
                       make_real_input(f, n, mix_seed(s, 1)), {}});
    }
  }
  in_.resize(n);
  out_.resize(n);
  half_out_.resize(n / 2 + 1);
}

RoundRunner::~RoundRunner() = default;

ftfft::engine::SchedulerStats RoundRunner::scheduler_stats() const {
  return engine_->scheduler_stats();
}

double RoundRunner::setup(Tracer& tr) {
  Scope span(tr, "rounds_setup", "registry");
  const std::int64_t t0 = now_ns();
  const std::size_t n = spec_.n;
  const std::size_t sizes[] = {n};
  PlanConfig mem;
  PlanConfig comp;
  comp.memory_fault_tolerance = false;
  PlanConfig off;
  off.protection = Protection::kOffline;
  PlanConfig none;
  none.protection = Protection::kNone;
  {
    Scope warm(tr, "warm_plans", "registry");
    (void)ftfft::warm_plans(sizes, mem);
    (void)ftfft::warm_plans(sizes, comp);
    (void)ftfft::warm_plans(sizes, off);
    (void)ftfft::warm_real_plans(sizes, mem);
    (void)ftfft::warm_real_plans(sizes, none);
    parallel_plan_ = ftfft::parallel::warm_plans(kRanks, n, true);
  }
  warm_s_ = static_cast<double>(now_ns() - t0) * 1e-9;

  plain_ = ftfft::fft::InplaceRadix2Plan::get(n);
  real_ = ftfft::fft::RealFftPlan::get(n);
  auto with = [&](PlanConfig c, int e) {
    c.injector = spec_.faults ? &inj_[static_cast<std::size_t>(e)] : nullptr;
    return std::make_unique<FtPlan>(n, c);
  };
  comp_ = with(comp, kOnlineComp);
  mem_ = with(mem, kOnlineMem);
  inplace_ = with(mem, kInplace);
  offline_ = with(off, kOffline);
  PlanConfig t2 = mem;
  t2.max_correctable_errors = 2;
  mem_t2_ = with(t2, kOnlineMem);
  PlanConfig canary = mem;
  canary.injector = &inj_[kCanary];
  canary_ = std::make_unique<FtPlan>(n, canary);

  real_opts_ = ftfft::make_abft_options(mem);
  real_opts_.injector = spec_.faults ? &inj_[kR2c] : nullptr;
  real_plan_ = ab::RealProtectionPlan::get(n);
  real_packed_plan_ = ab::resolve_real_packed_plan(n, real_opts_);
  parallel_opts_ = ftfft::parallel::ParallelOptions::opt_ft_fftw();
  engine_ = std::make_unique<ftfft::engine::BatchEngine>(1);

  const auto online =
      ab::resolve_protection_plan(n, ftfft::make_abft_options(mem), false);
  m_ = online->m();
  k_ = online->k();

  // One untimed call per entry point pays every remaining lazy cost (engine
  // worker spawn, thread-local scratch, first-touch of plan tables).
  for (int e = 0; e < kEntryCount; ++e) {
    for (auto& inj : inj_) inj.clear();
    if (e == kCanary) schedule_burst(inj_[kCanary], 1, k_);
    prepare(e, pool_.front());
    try {
      invoke(e, pool_.front(), false);
    } catch (const std::exception&) {
      // Outcomes are judged in the timed rounds; here only the cost counts.
    }
  }
  engine_->reset_scheduler_stats();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void RoundRunner::prepare_oracle() {
  const std::size_t n = spec_.n;
  std::vector<cplx> widened(n);
  for (Sample& s : pool_) {
    s.spectrum.resize(n);
    plain_->forward_copy(s.x.data(), s.spectrum.data());
    cross_check(s.x.data(), n, s.spectrum.data(), n, 4, spec_.seed);
    s.half_spectrum.resize(n / 2 + 1);
    real_->r2c(s.xr.data(), s.half_spectrum.data());
    for (std::size_t i = 0; i < n; ++i) widened[i] = {s.xr[i], 0.0};
    cross_check(widened.data(), n, s.half_spectrum.data(), n / 2 + 1, 4,
                spec_.seed);
  }
}

std::size_t RoundRunner::arm(int e, std::size_t round, bool& use_t2) {
  use_t2 = false;
  if (e == kCanary) {
    inj_[kCanary].clear();
    schedule_burst(inj_[kCanary], round % 8, k_);
    return 2;
  }
  const auto choices = phases_for(e);
  if (!spec_.faults || choices.empty()) return 0;
  auto& inj = inj_[static_cast<std::size_t>(e)];
  inj.clear();
  std::mt19937_64 g(mix_seed(spec_.seed, round, 100 + e));
  if (e == kOnlineMem && round % 4 == 3) {
    // The t = 2 slice: a two-element burst the syndrome decoder corrects.
    use_t2 = true;
    schedule_burst(inj, g() % 8, k_);
    return 2;
  }
  const PhaseChoice c = choices[round % choices.size()];
  const std::size_t unit = c.per_unit ? g() % 8 : 0;  // Element offsets past the hooked span are clamped by the injector.
  const std::size_t element = g() % spec_.n;
  const double magnitude = 20.0 + 80.0 * unit_interval(g);
  const double angle = 2.0 * std::numbers::pi * unit_interval(g);
  inj.schedule(FaultSpec::computational(c.phase, unit, element,
                                        std::polar(magnitude, angle)));
  return 1;
}

void RoundRunner::prepare(int e, const Sample& s) {
  switch (e) {
    case kOnlineComp:
    case kOnlineMem:
    case kInplace:
    case kOffline:
    case kCanary:
      std::copy(s.x.begin(), s.x.end(), in_.begin());
      break;
    case kSharded:
      sharded_in_.assign(s.x.begin(), s.x.end());
      break;
    default:
      break;
  }
}

void RoundRunner::invoke(int e, const Sample& s, bool use_t2) {
  switch (e) {
    case kPlain:
      plain_->forward_copy(s.x.data(), out_.data());
      break;
    case kOnlineComp:
      comp_->forward(in_.data(), out_.data());
      break;
    case kOnlineMem:
      (use_t2 ? mem_t2_ : mem_)->forward(in_.data(), out_.data());
      break;
    case kInplace:
      inplace_->forward_inplace(in_.data());
      break;
    case kOffline:
      offline_->forward(in_.data(), out_.data());
      break;
    case kR2cPlain:
      real_->r2c(s.xr.data(), half_out_.data());
      break;
    case kR2c:
      real_stats_.reset();
      // protected_r2c only reads its input; the parameter is non-const for
      // symmetry with the complex repair contract.
      ab::protected_r2c(const_cast<double*>(s.xr.data()), half_out_.data(),
                        spec_.n, real_opts_, real_stats_, real_plan_.get(),
                        real_packed_plan_.get());
      break;
    case kSharded: {
      const std::int64_t t = now_ns();
      auto future = ftfft::parallel::submit_parallel(
          kRanks, std::move(sharded_in_), parallel_opts_, {}, engine_.get());
      submit_ns_ = now_ns() - t;
      sharded_out_ = future.get(&parallel_report_);
      break;
    }
    case kCanary:
      canary_->forward(in_.data(), out_.data());
      break;
    default:
      throw std::logic_error("rounds: unknown entry point");
  }
}

Outcome RoundRunner::verdict(int e, const Sample& s, std::string* what) {
  const cplx* got = out_.data();
  const cplx* want = s.spectrum.data();
  std::size_t len = spec_.n;
  if (e == kInplace) got = in_.data();
  if (e == kSharded) got = sharded_out_.data();
  if (e == kR2cPlain || e == kR2c) {
    got = half_out_.data();
    want = s.half_spectrum.data();
    len = spec_.n / 2 + 1;
  }
  const double err = relative_error(got, want, len);
  if (err <= kOracleTolerance) return Outcome::kOk;
  *what = std::string(entry_name(e)) + " " + family_name(s.family) +
          " rel err " + std::to_string(err);
  return Outcome::kWrong;
}

void RoundRunner::run_round(std::size_t round, Tracer& tr, OpTally& tally,
                            RoundData& data) {
  const Sample& s = pool_[round % pool_.size()];
  Scope round_span(tr, "round", "harness");
  for (int i = 0; i < kEntryCount; ++i) {
    const int e = static_cast<int>((round + static_cast<std::size_t>(i)) %
                                   kEntryCount);
    bool use_t2 = false;
    const std::size_t scheduled = arm(e, round, use_t2);
    prepare(e, s);
    const std::int64_t op = next_op_++;
    Outcome outcome = Outcome::kOk;
    std::string what;
    const std::int64_t t0 = now_ns();
    {
      Scope op_span(tr, entry_name(e), entry_layer(e), op);
      try {
        invoke(e, s, use_t2);
      } catch (...) {
        outcome = classify(std::current_exception(), &what);
        what = std::string(entry_name(e)) + " " + family_name(s.family) +
               ": " + what;
      }
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (outcome == Outcome::kOk) {
      Scope check(tr, "oracle", "oracle", op);
      outcome = verdict(e, s, &what);
    }
    tally.record(outcome, what);
    const bool ok = outcome == Outcome::kOk;
    data.ms[static_cast<std::size_t>(e)].push_back(ok ? ms : NAN);
    if (e != kSharded) {
      block_op_s_ += ms * 1e-3;
      if (ok) block_ok_ms_.push_back(ms);
    }

    if (scheduled > 0) {
      tally.faults_scheduled += scheduled;
      tally.faults_fired += inj_[static_cast<std::size_t>(e)].fired_count();    }
    if (e == kCanary) {
      ++tally.canaries;
      if (!ok) ++tally.canaries_failed;
      continue;
    }
    if (scheduled > 0) {
      ++tally.faulted;
      if (ok) ++tally.faulted_ok;
    } else if (outcome == Outcome::kRefused) {
      ++tally.false_alarms[static_cast<std::size_t>(s.family)];
      ++tally.false_alarm_pairs[static_cast<std::size_t>(e)]
                               [static_cast<std::size_t>(s.family)];
    }
    switch (e) {
      case kOnlineComp:
        tally.add_stats(comp_->last_stats());
        break;
      case kOnlineMem:
        tally.add_stats((use_t2 ? mem_t2_ : mem_)->last_stats());
        break;
      case kInplace:
        tally.add_stats(inplace_->last_stats());
        break;
      case kOffline:
        tally.add_stats(offline_->last_stats());
        break;
      case kR2c:
        tally.add_stats(real_stats_);
        break;
      case kSharded:
        data.submit_us.push_back(static_cast<double>(submit_ns_) * 1e-3);
        if (ok) {
          tally.add_stats(parallel_report_.stats);
          for (std::size_t p = 0; p < 3; ++p) {
            data.phase_ms[p].push_back(
                parallel_report_.phases[p].wall_seconds * 1e3);
          }
          data.bytes_per_rank = parallel_report_.bytes_per_rank;
        }
        break;
      default:
        break;
    }
  }
}

void RoundRunner::run(double seconds, Tracer& tr, OpTally& tally,
                      RoundData& data) {
  // Whole blocks of rounds keep every sample (family x variant) equally
  // represented; a traced run alternates traced and untraced blocks so its
  // own overhead is measured on the same inputs.
  const bool tracing = tr.enabled();
  const std::size_t block = pool_.size();
  const std::uint64_t misses0 = plan_counter(false);
  const std::uint64_t verifs0 = plan_counter(true);
  const std::int64_t t0 = now_ns();
  const auto stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t block_start = t0;
  std::size_t round = 0;
  for (;; ++round) {
    if (round % block == 0) {
      const std::int64_t now = now_ns();
      if (round > 0) {
        if (!block_ok_ms_.empty()) {
          data.block_lps.push_back(
              static_cast<double>(block_ok_ms_.size()) / block_op_s_);
          data.block_p50_ms.push_back(nearest_rank(block_ok_ms_, 0.5));
          data.block_p99_ms.push_back(nearest_rank(block_ok_ms_, 0.99));
        }
        if (tracing) {
          const double ms = static_cast<double>(now - block_start) * 1e-6;
          ((round / block - 1) % 2 == 0 ? data.traced_block_ms
                                        : data.untraced_block_ms)
              .push_back(ms);
        }
      }
      if (now >= stop) break;
      block_start = now;
      block_ok_ms_.clear();
      block_op_s_ = 0.0;
      if (tracing) tr.set_enabled((round / block) % 2 == 0);
    }
    run_round(round, tr, tally, data);
  }
  tr.set_enabled(tracing);
  data.rounds = round;
  data.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  data.plan_misses = plan_counter(false) - misses0;
  data.plan_verifications = plan_counter(true) - verifs0;
}

}  // namespace perfbench
