// perfbench: runs one named workload for one seed, checks every
// output and prints every metric by name with its unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload serial_clean --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics (measured with tracing off);
// --trace 1 runs the same workload with spans recorded, adds the per-layer
// probes and prints the per-layer metrics, a self-time table and the
// tracing overhead. --setup-only stops after set-up and prints setup_s
// (run.py takes the median of several such processes). Exit status is
// non-zero only for a harness error; library refusals and wrong spectra are
// counted, not fatal.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine_mixed.hpp"
#include "probes.hpp"
#include "rounds.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           const std::string& note = {}) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_.push_back({name, value, unit});
    std::printf("  %-40s %14.6g %-8s %s\n", name.c_str(), value, unit,
                note.c_str());
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ", i ? ", " : "",
                    metrics_[i].name.c_str(), metrics_[i].value);
      s += buf;
      s += "\"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::vector<double> finite_only(const std::vector<double>& v) {
  std::vector<double> out;
  for (const double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

double median_of(const std::vector<double>& v) {
  return nearest_rank(finite_only(v), 0.5);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

RoundSpec round_spec(const Args& a) {
  if (a.workload == "serial_clean") {
    return {std::size_t{1} << 18,
            {kAllFamilies.begin(), kAllFamilies.end()}, false, a.seed};
  }
  if (a.workload == "serial_faulty") {
    return {std::size_t{1} << 16, {Family::kUniform, Family::kNormal}, true,
            a.seed};
  }
  if (a.workload == "engine_mixed") {
    // The engine workload's paired rounds run at one of its job sizes,
    // where glue rather than arithmetic dominates the overhead ratios.
    return {std::size_t{1} << 12, {Family::kUniform, Family::kNormal}, false,
            a.seed};
  }
  throw std::invalid_argument("unknown workload '" + a.workload +
                              "' (serial_clean | serial_faulty | engine_mixed)");
}

// Share of the run spent in the engine closed loop; the rest runs the
// paired rounds that give engine_mixed its small-size overhead ratios.
constexpr double kEngineShare = 0.7;

const char* const kTraceLayers[] = {"harness", "oracle", "fft",      "checksum",
                                    "abft",    "parallel", "engine", "registry"};

int run(const Args& a) {
  Tracer tr(a.trace);
  const bool engine = a.workload == "engine_mixed";
  RoundRunner rounds(round_spec(a));
  std::unique_ptr<EngineMixed> mixed;
  if (engine) mixed = std::make_unique<EngineMixed>(a.seed);

  // Set-up clock: from here (inputs already generated) to the first timed op.
  const std::int64_t t0 = now_ns();
  if (mixed) (void)mixed->setup(tr);
  (void)rounds.setup(tr);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double warm_s =
      rounds.warm_seconds() + (mixed ? mixed->warm_seconds() : 0.0);
  if (a.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  {
    Scope span(tr, "prepare_oracle", "oracle");
    rounds.prepare_oracle();
    if (mixed) mixed->prepare_oracle();
  }

  OpTally tally;
  RoundData rd;
  EngineData ed;
  const double round_seconds = engine ? a.seconds * (1.0 - kEngineShare)
                                      : a.seconds;
  if (mixed) mixed->run(a.seconds - round_seconds, tr, tally, ed);
  rounds.run(round_seconds, tr, tally, rd);
  if (tally.attempted == 0 || rd.rounds == 0) {
    throw std::runtime_error("no op completed within the measuring window");
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: n=%zu (m=%zu, "
              "k=%zu), %zu rounds in %.3f s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, rounds.n(), rounds.m(), rounds.k(),
              rd.rounds, rd.wall_s);
  if (engine) {
    std::printf("engine closed loop: %zu clients, %zu workers, %zu jobs, %zu "
                "lanes ok in %.3f s\n",
                EngineMixed::kClients, EngineMixed::kWorkers, ed.jobs,
                ed.lanes_ok, ed.wall_s);
  }
  std::printf("ops: attempted=%zu ok=%zu refused=%zu wrong=%zu errors=%zu "
              "(canaries %zu, refused or wrong %zu)\n",
              tally.attempted, tally.ok, tally.refused, tally.wrong,
              tally.errors, tally.canaries, tally.canaries_failed);
  for (const auto& m : tally.messages) std::printf("  ! %s\n", m.c_str());

  const double plain_ms = median_of(rd.ms[kPlain]);
  // Raw medians of every entry point, on every run, so the A/A runner can
  // set the raw spread beside the paired-ratio spread.
  std::string raw = "{";
  for (int e = 0; e < kEntryCount; ++e) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s_ms\": %.17g", e ? ", " : "",
                  entry_name(e), median_of(rd.ms[static_cast<std::size_t>(e)]));
    raw += buf;
  }
  std::printf("perfbench-raw %s}\n", raw.c_str());

  Report rep;
  const bool harness_ok = tally.faults_fired == tally.faults_scheduled;
  if (!a.trace) {
    std::printf("end-to-end metrics (tracing off):\n");
    const Summary plain = summarize(finite_only(rd.ms[kPlain]));
    rep.add("setup_s", setup_s, "s", "(this process; run.py reports a median)");
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
    rep.add("fail_ratio",
            static_cast<double>(tally.failed()) /
                static_cast<double>(tally.attempted),
            "fraction",
            "(" + std::to_string(tally.failed()) + "/" +
                std::to_string(tally.attempted) + ")");
    rep.add("plain_ms", plain_ms, "ms", describe(plain, "ms"));
    const struct {
      const char* name;
      int e, base;
    } ratios[] = {{"online_comp_x", kOnlineComp, kPlain},
                  {"online_mem_x", kOnlineMem, kPlain},
                  {"inplace_x", kInplace, kPlain},
                  {"offline_x", kOffline, kPlain},
                  {"r2c_x", kR2c, kR2cPlain},
                  {"sharded_x", kSharded, kPlain}};
    for (const auto& r : ratios) {
      const auto per_round = paired_ratios(rd.ms[static_cast<std::size_t>(r.e)],
                                           rd.ms[static_cast<std::size_t>(r.base)]);
      if (per_round.empty()) {
        throw std::runtime_error(std::string("no round with both ops ok for ") +
                                 r.name);
      }
      rep.add(r.name,
              paired_median(rd.ms[static_cast<std::size_t>(r.e)],
                            rd.ms[static_cast<std::size_t>(r.base)]),
              "ratio", describe(summarize(per_round), "x") + " pairs");
    }
    if (engine) {
      const Summary js = summarize(ed.job_ms);
      rep.add("capacity_lps", static_cast<double>(ed.lanes_ok) / ed.wall_s,
              "lanes/s", "(engine lanes ok / wall)");
      rep.add("job_p50_ms", js.p50, "ms", describe(js, "ms"));
      rep.add("job_p99_ms", nearest_rank(ed.job_ms, 0.99), "ms",
              "(n=" + std::to_string(js.count) + ")");
    } else {
      const std::string blocks =
          "(median over " + std::to_string(rd.block_lps.size()) + " blocks)";
      rep.add("capacity_lps", nearest_rank(rd.block_lps, 0.5), "lanes/s",
              blocks);
      rep.add("job_p50_ms", nearest_rank(rd.block_p50_ms, 0.5), "ms", blocks);
      rep.add("job_p99_ms", nearest_rank(rd.block_p99_ms, 0.5), "ms", blocks);
    }
  } else {
    const ProbeResults pr =
        run_probes(rounds.n(), rounds.m(), rounds.k(), rounds.sample_input(),
                   rounds.sample_real_input(), tr);
    if (!pr.repair_ok) {
      throw std::runtime_error("checksum.repair_us probe failed to correct");
    }
    const double n = static_cast<double>(rounds.n());
    const double ops = static_cast<double>(std::max<std::size_t>(
        tally.protected_ops, 1));
    const ftfft::abft::Stats& st = tally.stats;
    std::printf("per-layer metrics (traced run):\n");
    rep.add("fft.exec_ms", pr.fft_exec_ms, "ms");
    rep.add("fft.exec_sub_us", pr.fft_exec_sub_us, "us");
    rep.add("fft.real_ms", pr.fft_real_ms, "ms");
    rep.add("fft.gflops",
            plain_ms > 0 ? 5.0 * n * std::log2(n) / (plain_ms * 1e-3) / 1e9
                         : 0.0,
            "GFLOP/s", "(5 n log2 n / plain_ms)");
    rep.add("checksum.weighted_sum_energy_gbps", pr.weighted_sum_energy_gbps,
            "GB/s", "(computed bytes)");
    rep.add("checksum.dual_sum_gbps", pr.dual_sum_gbps, "GB/s");
    rep.add("checksum.omega3_gbps", pr.omega3_gbps, "GB/s");
    rep.add("checksum.copy_dual_sum_gbps", pr.copy_dual_sum_gbps, "GB/s");
    rep.add("checksum.repair_us", pr.repair_us, "us");
    for (const int e : {kOnlineComp, kOnlineMem, kInplace, kOffline, kR2c,
                        kSharded}) {
      const auto& v = rd.ms[static_cast<std::size_t>(e)];
      rep.add(std::string("abft.") + entry_name(e) + "_ms", median_of(v), "ms",
              describe(summarize(finite_only(v)), "ms"));
    }
    rep.add("abft.dmr_twiddle_ms", pr.dmr_twiddle_ms, "ms");
    rep.add("abft.verifications_per_op",
            static_cast<double>(st.verifications) / ops, "count");
    rep.add("abft.retries_per_op",
            static_cast<double>(st.sub_fft_retries) / ops, "count");
    rep.add("abft.restarts_per_op",
            static_cast<double>(st.full_restarts) / ops, "count");
    rep.add("abft.dmr_votes_per_op",
            static_cast<double>(st.dmr_mismatches) / ops, "count");
    rep.add("abft.mem_corrected_per_op",
            static_cast<double>(st.mem_errors_corrected) / ops, "count");
    rep.add("abft.multi_corrected_per_op",
            static_cast<double>(st.multi_errors_corrected) / ops, "count");
    rep.add("abft.corrected_per_fault",
            tally.faulted > 0 ? static_cast<double>(tally.faulted_ok) /
                                    static_cast<double>(tally.faulted)
                              : 0.0,
            "ratio", "(" + std::to_string(tally.faulted) + " faulted ops)");
    rep.add("abft.silent_corruptions", static_cast<double>(tally.wrong),
            "count");
    for (const Family f : kAllFamilies) {
      std::string pairs;
      for (int e = 0; e < kEntryCount; ++e) {
        const std::size_t c =
            tally.false_alarm_pairs[static_cast<std::size_t>(e)]
                                   [static_cast<std::size_t>(f)];
        if (c > 0) pairs += std::string(entry_name(e)) + "=" +
                            std::to_string(c) + " ";
      }
      rep.add(std::string("roundoff.false_alarms.") + family_name(f),
              static_cast<double>(
                  tally.false_alarms[static_cast<std::size_t>(f)]),
              "count", pairs);
    }
    rep.add("fault.fired_per_op",
            tally.faults_scheduled > 0
                ? static_cast<double>(tally.faults_fired) /
                      static_cast<double>(tally.faults_scheduled)
                : 0.0,
            "ratio", "(fired / scheduled)");
    rep.add("fault.noncanary_fail_ratio",
            static_cast<double>(tally.failed() - tally.canaries_failed) /
                static_cast<double>(tally.attempted - tally.canaries),
            "fraction");

    const ftfft::engine::SchedulerStats sched =
        engine ? ed.sched : rounds.scheduler_stats();
    const Summary submit = summarize(engine ? ed.submit_us : rd.submit_us);
    rep.add("engine.submit_us.p50", submit.p50, "us", describe(submit, "us"));
    rep.add("engine.submit_us.p99",
            nearest_rank(engine ? ed.submit_us : rd.submit_us, 0.99), "us");
    std::size_t rejected = 0, shed = 0, expired = 0;
    for (const auto p : {ftfft::engine::Priority::kHigh,
                         ftfft::engine::Priority::kNormal,
                         ftfft::engine::Priority::kLow}) {
      const auto& c = sched.at(p);
      const std::string cls = ftfft::engine::priority_name(p);
      const std::string note = "(n=" + std::to_string(c.queue_wait.count) + ")";
      rep.add("engine.queue_wait_ms." + cls + ".p50", c.queue_wait.p50 * 1e3,
              "ms", note);
      rep.add("engine.queue_wait_ms." + cls + ".p99", c.queue_wait.p99 * 1e3,
              "ms", note);
      rejected += c.jobs_rejected;
      shed += c.shed_lanes;
      expired += c.deadline_expired_lanes;
    }
    // Serial workloads: the busiest class of the sharded op's one-worker
    // engine (its phase fan-outs pick their own class).
    const ftfft::engine::PriorityClassStats* busiest = &sched.classes[0];
    for (const auto& c : sched.classes) {
      if (c.run.count > busiest->run.count) busiest = &c;
    }
    rep.add("engine.run_ms.p50",
            engine ? nearest_rank(ed.run_ms, 0.5) : busiest->run.p50 * 1e3,
            "ms");
    rep.add("engine.rejected", static_cast<double>(rejected), "count");
    rep.add("engine.shed_lanes", static_cast<double>(shed), "count");
    rep.add("engine.expired_lanes", static_cast<double>(expired), "count");
    rep.add("registry.warm_s", warm_s, "s");
    rep.add("registry.misses_timed",
            static_cast<double>(rd.plan_misses + ed.plan_misses), "count");
    rep.add("registry.verifications_timed",
            static_cast<double>(rd.plan_verifications + ed.plan_verifications),
            "count");
    for (std::size_t p = 0; p < 3; ++p) {
      rep.add("parallel.phase" + std::to_string(p + 1) + "_ms",
              nearest_rank(rd.phase_ms[p], 0.5), "ms");
    }
    rep.add("parallel.bytes_per_rank", static_cast<double>(rd.bytes_per_rank),
            "B");

    const auto pairs = paired_ratios(rd.traced_block_ms, rd.untraced_block_ms);
    const double overhead =
        pairs.empty() ? 0.0 : (nearest_rank(pairs, 0.5) - 1.0) * 100.0;
    rep.add("trace.overhead_pct", overhead, "%",
            "(traced vs untraced blocks, " + std::to_string(pairs.size()) +
                " pairs)");
    rep.add("trace.spans", static_cast<double>(tr.spans().size()), "count");
    const auto self = tr.self_ms_by_layer();
    std::printf("self time by layer (traced blocks, probes and set-up):\n");
    for (const char* layer : kTraceLayers) {
      const auto it = self.find(layer);
      const double ms = it == self.end() ? 0.0 : it->second;
      rep.add(std::string("trace.self_ms.") + layer, ms, "ms");
    }
    std::printf("tracing overhead: %+.2f%% of round wall time (median of %zu "
                "traced/untraced block pairs)\n",
                overhead, pairs.size());
    if (!a.trace_out.empty()) {
      tr.write_chrome_json(a.trace_out);
      std::printf("trace written: %s (%zu spans)\n", a.trace_out.c_str(),
                  tr.spans().size());
    }
  }

  const std::size_t failed = tally.wrong + tally.errors;
  const bool correct = failed == 0 && harness_ok;
  if (!harness_ok) {
    std::printf("harness: %zu faults scheduled but %zu fired\n",
                tally.faults_scheduled, tally.faults_fired);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, failed,
              rep.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: harness error: %s\n", e.what());
    return 1;
  }
}
