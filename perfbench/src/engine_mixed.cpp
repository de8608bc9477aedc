#include "engine_mixed.hpp"

#include <random>
#include <span>
#include <stdexcept>
#include <string>

#include "abft/protection_plan.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace eng = ftfft::engine;
using ftfft::fault::FaultSpec;
using ftfft::fault::Phase;

namespace {

struct Kind {
  bool real;
  std::size_t n;
};
constexpr std::array<Kind, 4> kKinds = {
    {{false, 1024}, {false, 4096}, {false, 16384}, {true, 4096}}};
constexpr std::size_t kComplexKinds = 3;
constexpr std::size_t kPoolItems = 8;
constexpr std::size_t kMaxLanes = 16;
// Every 16th job carries one canary lane (see Entry::kCanary).
constexpr std::size_t kCanaryEvery = 16;

}  // namespace

EngineMixed::EngineMixed(std::uint64_t seed) : seed_(seed) {
  pool_.resize(kKinds.size());
  std::size_t max_elems = 0;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const std::size_t n = kKinds[k].n;
    for (std::size_t i = 0; i < kPoolItems; ++i) {
      const Family f = i % 2 == 0 ? Family::kUniform : Family::kNormal;
      const std::uint64_t s = mix_seed(seed, 1000 + k, i);
      Item item;
      if (kKinds[k].real) {
        item.xr = make_real_input(f, n, s);
      } else {
        item.x = make_input(f, n, s);
      }
      pool_[k].push_back(std::move(item));
    }
    max_elems = std::max(max_elems, kMaxLanes * n);
  }
  for (Client& c : clients_) {
    c.out.resize(max_elems);
    c.lanes.reserve(kMaxLanes);
    c.real_lanes.reserve(kMaxLanes);
  }
}

EngineMixed::~EngineMixed() {
  // Every job the run submitted has completed before run() returns; this
  // only guards an exception path, where futures may still be in flight
  // and their buffers must outlive the workers.
  for (Client& c : clients_) {
    if (c.future.valid()) c.future.wait();
  }
}

double EngineMixed::setup(Tracer& tr) {
  Scope span(tr, "engine_setup", "registry");
  const std::int64_t t0 = now_ns();
  const std::size_t complex_sizes[] = {1024, 4096, 16384};
  const std::size_t real_sizes[] = {4096};
  {
    Scope warm(tr, "warm_plans", "registry");
    (void)ftfft::warm_plans(complex_sizes, ftfft::PlanConfig{});
    (void)ftfft::warm_real_plans(real_sizes, ftfft::PlanConfig{});
  }
  warm_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  opts_ = ftfft::make_abft_options(ftfft::PlanConfig{});
  for (std::size_t k = 0; k < kComplexKinds; ++k) {
    slot_stride_[k] =
        ftfft::abft::resolve_protection_plan(kKinds[k].n, opts_, false)->k();
  }
  engine_ = std::make_unique<eng::BatchEngine>(kWorkers);
  // One untimed single-lane job per kind spawns the workers and sizes
  // their staging arenas.
  eng::BatchOptions bo;
  bo.abft = opts_;
  Client& c = clients_.front();
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    Item& item = pool_[k].front();
    eng::BatchReport r;
    if (kKinds[k].real) {
      const eng::RealLane lane{item.xr.data(), c.out.data(), nullptr};
      r = engine_
              ->submit_real_batch(std::span(&lane, 1), kKinds[k].n,
                                  eng::RealDirection::kForward, bo)
              .get();
    } else {
      const eng::Lane lane{item.x.data(), c.out.data(), nullptr};
      r = engine_->submit_batch(std::span(&lane, 1), kKinds[k].n, bo).get();
    }
    (void)r;
  }
  engine_->reset_scheduler_stats();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void EngineMixed::prepare_oracle() {
  std::vector<cplx> widened;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const std::size_t n = kKinds[k].n;
    for (Item& item : pool_[k]) {
      if (kKinds[k].real) {
        item.spectrum.resize(n / 2 + 1);
        ftfft::fft::RealFftPlan::get(n)->r2c(item.xr.data(),
                                             item.spectrum.data());
        widened.assign(n, cplx{});
        for (std::size_t i = 0; i < n; ++i) widened[i] = {item.xr[i], 0.0};
        cross_check(widened.data(), n, item.spectrum.data(), n / 2 + 1, 4,
                    seed_);
      } else {
        item.spectrum.resize(n);
        ftfft::fft::InplaceRadix2Plan::get(n)->forward_copy(
            item.x.data(), item.spectrum.data());
        cross_check(item.x.data(), n, item.spectrum.data(), n, 4, seed_);
      }
    }
  }
}

void EngineMixed::submit(std::size_t id, std::size_t job, EngineData& data) {
  Client& c = clients_[id];
  std::mt19937_64 g(mix_seed(seed_, job, 7));
  c.job = job;
  c.canary = job % kCanaryEvery == kCanaryEvery - 1;
  c.kind = c.canary ? g() % kComplexKinds : g() % kKinds.size();
  c.lanes_n = 4 + g() % (kMaxLanes - 3);
  c.base = g() % kPoolItems;
  eng::BatchOptions bo;
  bo.abft = opts_;
  bo.submit.priority = static_cast<eng::Priority>(g() % eng::kNumPriorities);
  const Kind kind = kKinds[c.kind];
  auto& items = pool_[c.kind];
  eng::BatchFuture future;
  std::int64_t t0 = 0;
  if (kind.real) {
    c.real_lanes.clear();
    for (std::size_t l = 0; l < c.lanes_n; ++l) {
      c.real_lanes.push_back({items[(c.base + l) % kPoolItems].xr.data(),
                              c.out.data() + l * (kind.n / 2 + 1), nullptr});
    }
    t0 = now_ns();
    future = engine_->submit_real_batch(c.real_lanes, kind.n,
                                        eng::RealDirection::kForward, bo);
  } else {
    if (c.canary) {
      c.injector.clear();
      c.injector.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                                3, {7.0, 1.0}));
      c.injector.schedule(FaultSpec::memory_set(
          Phase::kInputAfterChecksum, 0, 3 + slot_stride_[c.kind],
          {-2.0, 6.0}));
    }
    c.lanes.clear();
    for (std::size_t l = 0; l < c.lanes_n; ++l) {
      // Pool inputs are shared read-only across clients: fault-free lanes
      // never write their input. The canary's burst lands in the input
      // array itself, so the canary lane reads a private copy.
      cplx* in = items[(c.base + l) % kPoolItems].x.data();
      if (c.canary && l == 0) {
        c.canary_in.assign(in, in + kind.n);
        in = c.canary_in.data();
      }
      c.lanes.push_back({in, c.out.data() + l * kind.n,
                         c.canary && l == 0 ? &c.injector : nullptr});
    }
    t0 = now_ns();
    future = engine_->submit_batch(c.lanes, kind.n, bo);
  }
  const std::int64_t t1 = now_ns();
  c.submit_ns = t0;
  c.future = future;
  data.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  c.future.then([this, id](eng::BatchReport& r) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    clients_[id].done_ns = t;
    clients_[id].report = std::move(r);
    ready_.push_back(id);
    cv_.notify_one();
  });
}

void EngineMixed::complete(std::size_t id, Tracer& tr, OpTally& tally,
                           EngineData& data) {
  Client& c = clients_[id];
  c.future.wait();  // the callback has returned
  c.future = {};
  const eng::BatchReport& r = c.report;
  const Kind kind = kKinds[c.kind];
  const std::size_t len = kind.real ? kind.n / 2 + 1 : kind.n;
  ++data.jobs;
  data.job_ms.push_back(static_cast<double>(c.done_ns - c.submit_ns) * 1e-6);
  data.run_ms.push_back(r.run_seconds * 1e3);
  if (tr.enabled()) {
    const auto tid = static_cast<std::int32_t>(id + 1);
    const auto op = static_cast<std::int64_t>(c.job);
    const std::int32_t job =
        tr.add(kind.real ? "r2c_job" : "complex_job", "engine", c.submit_ns,
               c.done_ns, -1, op, tid);
    const auto wait_end =
        c.submit_ns + static_cast<std::int64_t>(r.queue_wait_seconds * 1e9);
    tr.add("queue_wait", "engine", c.submit_ns, wait_end, job, op, tid);
    tr.add("run", "abft", wait_end,
           wait_end + static_cast<std::int64_t>(r.run_seconds * 1e9), job, op,
           tid);
  }
  for (std::size_t l = 0; l < c.lanes_n; ++l) {
    const bool canary_lane = c.canary && l == 0;
    Outcome o;
    std::string what;
    if (l < r.exceptions.size() && r.exceptions[l] != nullptr) {
      o = classify(r.exceptions[l], &what);
    } else {
      const Item& item = pool_[c.kind][(c.base + l) % kPoolItems];
      o = judge(c.out.data() + l * len, item.spectrum.data(), len);
      what = "engine lane outside the oracle bound";
    }
    tally.record(o, what);
    if (o == Outcome::kOk) ++data.lanes_ok;
    if (canary_lane) {
      ++tally.canaries;
      if (o != Outcome::kOk) ++tally.canaries_failed;
      tally.faults_scheduled += 2;
      tally.faults_fired += c.injector.fired_count();
    } else if (o == Outcome::kRefused) {
      const Family f = (c.base + l) % 2 == 0 ? Family::kUniform
                                             : Family::kNormal;
      ++tally.false_alarms[static_cast<std::size_t>(f)];
    }
    if (!canary_lane && l < r.per_lane.size()) tally.add_stats(r.per_lane[l]);
  }
}

void EngineMixed::run(double seconds, Tracer& tr, OpTally& tally,
                      EngineData& data) {
  const std::uint64_t misses0 = plan_counter(false);
  const std::uint64_t verifs0 = plan_counter(true);
  const std::int64_t t0 = now_ns();
  const auto stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t next_job = 0;
  std::size_t outstanding = 0;
  for (std::size_t id = 0; id < kClients; ++id) {
    submit(id, next_job++, data);
    ++outstanding;
  }
  std::vector<std::size_t> done;
  while (outstanding > 0) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return !ready_.empty(); });
      done.swap(ready_);
    }
    for (const std::size_t id : done) {
      complete(id, tr, tally, data);
      --outstanding;
      if (now_ns() < stop) {
        submit(id, next_job++, data);
        ++outstanding;
      }
    }
    done.clear();
  }
  data.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  data.sched = engine_->scheduler_stats();
  data.plan_misses = plan_counter(false) - misses0;
  data.plan_verifications = plan_counter(true) - verifs0;
}

}  // namespace perfbench
