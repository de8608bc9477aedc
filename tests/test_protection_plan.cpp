// ProtectionPlan + PlanRegistry: the cached per-(n, options) ABFT setup and
// the shared LRU bound over every process-wide plan cache.
#include "abft/protection_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "abft/protected_fft.hpp"
#include "checksum/weights.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "core/ftfft.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::ProtectionPlan;
using abft::Scheme;
using abft::Stats;

// Pin the plan-cache capacity before main() runs, i.e. before any lazily
// latched read of FTFFT_PLAN_CACHE_CAP: EnvKnobSetsCacheCapacity asserts
// the knob reaches the registries, and the small bound keeps eviction
// exercised underneath every other test in this file.
[[maybe_unused]] const bool kEnvPinned = [] {
  ::setenv("FTFFT_PLAN_CACHE_CAP", "3", 1);
  return true;
}();

// Row `name` of plan_cache_stats(). Its `misses` is the cache's build
// count: every construction goes through the cache, and every miss runs
// the builder once.
PlanCacheStats cache_row(std::string_view name) {
  for (const PlanCacheStats& s : plan_cache_stats()) {
    if (name == s.name) return s;
  }
  ADD_FAILURE() << "plan_cache_stats has no row " << name;
  return {};
}

// --------------------------------------------------------- PlanRegistry

// The registries below are test-local: they enroll like the process-wide
// caches, unsealed, and withdraw when they go out of scope.

TEST(PlanRegistry, BoundedLruEviction) {
  PlanRegistry<int, int> reg("test-lru", nullptr);
  reg.set_capacity(2);
  std::atomic<int> builds{0};
  auto build = [&](int v) {
    return [&builds, v] {
      ++builds;
      return std::make_shared<const int>(v);
    };
  };
  EXPECT_EQ(*reg.get_or_build(1, build(1)), 1);
  EXPECT_EQ(*reg.get_or_build(2, build(2)), 2);
  EXPECT_EQ(reg.snapshot().size, 2u);
  // Touch 1 so it is most recently used, then insert 3: 2 must go.
  EXPECT_EQ(*reg.get_or_build(1, build(-1)), 1);
  EXPECT_EQ(*reg.get_or_build(3, build(3)), 3);
  EXPECT_EQ(reg.snapshot().size, 2u);
  EXPECT_EQ(reg.snapshot().evictions, 1u);
  EXPECT_EQ(builds.load(), 3);
  // 1 survived (no rebuild); 2 was evicted and rebuilds.
  EXPECT_EQ(*reg.get_or_build(1, build(-1)), 1);
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(*reg.get_or_build(2, build(20)), 20);
  EXPECT_EQ(builds.load(), 4);
}

TEST(PlanRegistry, CapacityZeroIsUnbounded) {
  PlanRegistry<int, int> reg("test-unbounded", nullptr);
  reg.set_capacity(0);
  for (int i = 0; i < 100; ++i) {
    reg.get_or_build(i, [i] { return std::make_shared<const int>(i); });
  }
  EXPECT_EQ(reg.snapshot().size, 100u);
  EXPECT_EQ(reg.snapshot().evictions, 0u);
}

TEST(PlanRegistry, ShrinkingCapacityEvictsDownToBound) {
  PlanRegistry<int, int> reg("test-shrink", nullptr);
  reg.set_capacity(8);
  for (int i = 0; i < 8; ++i) {
    reg.get_or_build(i, [i] { return std::make_shared<const int>(i); });
  }
  reg.set_capacity(3);
  EXPECT_EQ(reg.snapshot().size, 3u);
  EXPECT_EQ(reg.snapshot().evictions, 5u);
  // The three most recently used keys (5, 6, 7) survive.
  std::atomic<int> rebuilds{0};
  for (int i = 5; i < 8; ++i) {
    reg.get_or_build(i, [&] {
      ++rebuilds;
      return std::make_shared<const int>(-1);
    });
  }
  EXPECT_EQ(rebuilds.load(), 0);
}

TEST(PlanRegistry, EvictedValueStaysAliveForHolders) {
  PlanRegistry<int, std::vector<int>> reg("test-holders", nullptr);
  reg.set_capacity(1);
  auto held = reg.get_or_build(
      1, [] { return std::make_shared<const std::vector<int>>(64, 7); });
  reg.get_or_build(
      2, [] { return std::make_shared<const std::vector<int>>(64, 8); });
  EXPECT_EQ(reg.snapshot().size, 1u);
  EXPECT_EQ((*held)[0], 7);  // eviction dropped only the cache reference
}

TEST(PlanRegistry, ConcurrentGetOrBuildIsConsistent) {
  PlanRegistry<int, int> reg("test-concurrent", nullptr);
  reg.set_capacity(16);
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const int key = i % kKeys;
        auto v = reg.get_or_build(
            key, [key] { return std::make_shared<const int>(key * 10); });
        if (*v != key * 10) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_LE(reg.snapshot().size, static_cast<std::size_t>(kKeys));
}

// -------------------------------------------------------- ProtectionPlan

TEST(ProtectionPlan, CachedResolutionReturnsSameInstance) {
  const Options opts = Options::online_opt(true);
  const auto a = ProtectionPlan::get(1 << 10, Scheme::kOnline, opts);
  const auto b = ProtectionPlan::get(1 << 10, Scheme::kOnline, opts);
  EXPECT_EQ(a.get(), b.get());
  // Different scheme or checksum-relevant option = different plan.
  const auto c = ProtectionPlan::get(1 << 10, Scheme::kOnlineInplace, opts);
  EXPECT_NE(a.get(), c.get());
  Options naive = opts;
  naive.ra_method = checksum::RaGenMethod::kNaiveTrig;
  const auto d = ProtectionPlan::get(1 << 10, Scheme::kOnline, naive);
  EXPECT_NE(a.get(), d.get());
  // Fields irrelevant to the setup (injector, retries, eta override,
  // memory_ft) share the entry.
  Options tweaked = opts;
  tweaked.memory_ft = !opts.memory_ft;
  tweaked.max_retries = 9;
  tweaked.eta_override = 1e-3;
  const auto e = ProtectionPlan::get(1 << 10, Scheme::kOnline, tweaked);
  EXPECT_EQ(a.get(), e.get());
}

TEST(ProtectionPlan, SchemesExposeTheirDecomposition) {
  const Options opts = Options::online_opt(true);
  const std::size_t n = 1 << 12;
  const auto online = ProtectionPlan::get(n, Scheme::kOnline, opts);
  EXPECT_EQ(online->m() * online->k(), n);
  EXPECT_NE(online->weights_m(), nullptr);
  EXPECT_NE(online->weights_k(), nullptr);
  EXPECT_GE(online->layer1_batch(), 1u);
  EXPECT_GE(online->layer2_cols(), 1u);
  EXPECT_GT(online->eta_m().comp, 0.0);
  EXPECT_GT(online->eta_k().mem, 0.0);

  const auto inplace = ProtectionPlan::get(n, Scheme::kOnlineInplace, opts);
  EXPECT_EQ(inplace->k() * inplace->r() * inplace->k(), n);
  EXPECT_NE(inplace->weights_k(), nullptr);

  const auto offline = ProtectionPlan::get(n, Scheme::kOffline, opts);
  EXPECT_NE(offline->weights_m(), nullptr);
  EXPECT_GT(offline->eta_whole().comp, 0.0);
}

TEST(ProtectionPlan, OfflinePlanStateIsOnlyTheInputChecksum) {
  // At t = 1 the whole-transform scheme needs nothing cached but its (rA)
  // vector: one n-element span, the same bytes weights_m() points at.
  Options opts = Options::offline_opt(true);
  opts.max_correctable_errors = 1;
  const std::size_t n = 1 << 12;
  const auto plan = ProtectionPlan::get(n, Scheme::kOffline, opts);
  StateSpans s;
  plan->collect_state(s);
  ASSERT_EQ(s.spans.size(), 1u);
  EXPECT_EQ(s.spans[0].data, static_cast<const void*>(plan->weights_m()));
  EXPECT_EQ(s.spans[0].bytes, n * sizeof(cplx));
}

TEST(ProtectionPlan, InplaceLayer1BatchFollowsTheStagingRule) {
  // 32768 elements per staging block, at most one block's worth of
  // columns, whatever the buffering switch says.
  for (const Options& opts :
       {Options::online_opt(true), Options::online_naive(false)}) {
    EXPECT_EQ(ProtectionPlan::get(1 << 12, Scheme::kOnlineInplace, opts)
                  ->layer1_batch(),
              64u);  // k = 64: clamped to the 64-column block
    EXPECT_EQ(ProtectionPlan::get(1 << 18, Scheme::kOnlineInplace, opts)
                  ->layer1_batch(),
              64u);  // k = 512
    EXPECT_EQ(ProtectionPlan::get(1 << 16, Scheme::kOnlineInplace, opts)
                  ->layer1_batch(),
              128u);  // k = 256
    EXPECT_EQ(ProtectionPlan::get(1 << 17, Scheme::kOnlineInplace, opts)
                  ->layer1_batch(),
              128u);  // k = 256, r = 2
  }
}

TEST(ProtectionPlan, UnbufferedOptionsDisableStaging) {
  const Options naive = Options::online_naive(false);
  const auto plan = ProtectionPlan::get(1 << 12, Scheme::kOnline, naive);
  EXPECT_EQ(plan->layer1_batch(), 1u);
  EXPECT_EQ(plan->layer2_cols(), 1u);
}

TEST(ProtectionPlan, InvalidSizesThrowLikeThePerCallSetup) {
  const Options opts = Options::online_opt(true);
  EXPECT_THROW(ProtectionPlan::get(7, Scheme::kOnline, opts),
               std::invalid_argument);
  EXPECT_THROW(ProtectionPlan::get(12, Scheme::kOffline, opts),
               std::invalid_argument);  // 3 | 12 degenerates the encoding
  EXPECT_THROW(ProtectionPlan::get(6, Scheme::kOnlineInplace, opts),
               std::invalid_argument);  // no square factor
}

TEST(ProtectionPlan, ConcurrentGetYieldsOneSharedPlan) {
  detail::reset_plan_cache("protection-plan");
  const Options opts = Options::online_opt(true);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ProtectionPlan>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        seen[t] = ProtectionPlan::get(1 << 11, Scheme::kOnline, opts);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
}

TEST(ProtectionPlan, LruEvictionRebuildsEvictedPlans) {
  const std::size_t restore = cache_row("protection-plan").capacity;
  detail::reset_plan_cache("protection-plan", 2);
  const Options opts = Options::online_opt(true);

  const auto p16 = ProtectionPlan::get(16, Scheme::kOnline, opts);
  ProtectionPlan::get(32, Scheme::kOnline, opts);
  EXPECT_EQ(cache_row("protection-plan").size, 2u);
  ProtectionPlan::get(64, Scheme::kOnline, opts);  // evicts 16
  EXPECT_EQ(cache_row("protection-plan").size, 2u);

  const auto builds_before = cache_row("protection-plan").misses;
  const auto p16b = ProtectionPlan::get(16, Scheme::kOnline, opts);
  EXPECT_EQ(cache_row("protection-plan").misses, builds_before + 1);
  EXPECT_NE(p16.get(), p16b.get());  // rebuilt
  // The evicted instance is still fully usable by its holders.
  EXPECT_EQ(p16->m() * p16->k(), 16u);

  detail::reset_plan_cache("protection-plan", restore);
}

TEST(ProtectionPlan, EnvKnobSetsCacheCapacity) {
  // FTFFT_PLAN_CACHE_CAP=3 was exported before main() (see kEnvPinned).
  EXPECT_EQ(cache_row("protection-plan").capacity, 3u);
  const Options opts = Options::online_opt(true);
  for (std::size_t n : {16u, 32u, 64u, 128u, 256u}) {
    ProtectionPlan::get(n, Scheme::kOnline, opts);
  }
  EXPECT_EQ(cache_row("protection-plan").size, 3u);
}

TEST(ProtectionPlan, ResetOfAnUnknownCacheThrows) {
  EXPECT_THROW(detail::reset_plan_cache("no-such-cache"),
               std::invalid_argument);
}

// ------------------------------------------- batch vs per-call identity

std::vector<Options> preset_matrix() {
  return {Options::online_opt(true),    Options::online_opt(false),
          Options::online_naive(true),  Options::online_naive(false),
          Options::offline_opt(true),   Options::offline_naive(false),
          Options::none()};
}

TEST(ProtectionPlanBatch, BatchOutputBitIdenticalToPerCallPath) {
  const std::size_t n = 1 << 9;
  const std::size_t lanes = 12;
  engine::BatchEngine eng(4);
  for (const Options& opts : preset_matrix()) {
    std::vector<std::vector<cplx>> inputs;
    for (std::size_t l = 0; l < lanes; ++l) {
      inputs.push_back(random_vector(n, InputDistribution::kUniform,
                                     900 + static_cast<unsigned>(l)));
    }
    // Per-call path: fresh Options each call, setup re-resolved per lane.
    std::vector<std::vector<cplx>> serial_out(lanes, std::vector<cplx>(n));
    for (std::size_t l = 0; l < lanes; ++l) {
      auto x = inputs[l];
      Stats stats;
      abft::protected_transform(x.data(), serial_out[l].data(), n, opts,
                                stats);
    }
    // Batched path: plan resolved once, shared by every lane.
    std::vector<std::vector<cplx>> batch_in = inputs;
    std::vector<std::vector<cplx>> batch_out(lanes, std::vector<cplx>(n));
    std::vector<engine::Lane> batch(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = {batch_in[l].data(), batch_out[l].data(), nullptr};
    }
    engine::BatchOptions bopts;
    bopts.abft = opts;
    const auto report = eng.submit_batch(batch, n, bopts).get();
    ASSERT_TRUE(report.all_ok());
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(std::memcmp(serial_out[l].data(), batch_out[l].data(),
                            n * sizeof(cplx)),
                0)
          << "lane " << l << " diverged (mode "
          << static_cast<int>(opts.mode) << ")";
    }
  }
}

TEST(ProtectionPlanBatch, InplaceBatchBitIdenticalToPerCallPath) {
  const std::size_t n = 1 << 8;
  const std::size_t lanes = 8;
  engine::BatchEngine eng(4);
  for (const Options& opts :
       {Options::online_opt(true), Options::online_naive(false),
        Options::offline_opt(true), Options::none()}) {
    std::vector<std::vector<cplx>> serial_data, batch_data;
    for (std::size_t l = 0; l < lanes; ++l) {
      serial_data.push_back(random_vector(
          n, InputDistribution::kNormal, 40 + static_cast<unsigned>(l)));
      batch_data.push_back(serial_data.back());
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      Stats stats;
      abft::protected_transform_inplace(serial_data[l].data(), n, opts,
                                        stats);
    }
    std::vector<engine::Lane> batch(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = {batch_data[l].data(), nullptr, nullptr};
    }
    engine::BatchOptions bopts;
    bopts.abft = opts;
    const auto report = eng.submit_batch(batch, n, bopts).get();
    ASSERT_TRUE(report.all_ok());
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(std::memcmp(serial_data[l].data(), batch_data[l].data(),
                            n * sizeof(cplx)),
                0)
          << "lane " << l;
    }
  }
}

TEST(ProtectionPlanBatch, RaGenerationAmortizedAcrossLanes) {
  // A fresh-size batch generates the checksum vectors once (under DMR: at
  // most three redundant passes per vector, two vectors), independent of
  // the lane count; a repeat batch generates none. The size is used by no
  // other test in this file so a bare full-suite run stays deterministic.
  const std::size_t n = 1 << 13;
  const std::size_t lanes = 48;
  engine::BatchEngine eng(4);
  engine::BatchOptions bopts;
  bopts.abft = Options::online_opt(true);

  std::vector<std::vector<cplx>> ins, outs(lanes, std::vector<cplx>(n));
  for (std::size_t l = 0; l < lanes; ++l) {
    ins.push_back(random_vector(n, InputDistribution::kUniform,
                                7 + static_cast<unsigned>(l)));
  }
  std::vector<engine::Lane> batch(lanes);

  const auto run_batch = [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = {ins[l].data(), outs[l].data(), nullptr};
    }
    const auto report = eng.submit_batch(batch, n, bopts).get();
    ASSERT_TRUE(report.all_ok());
  };

  const auto before = checksum::ra_generations();
  run_batch();
  const auto first = checksum::ra_generations() - before;
  EXPECT_GE(first, 2u);  // one DMR generation per layer vector, minimum
  EXPECT_LE(first, 6u);  // and never O(lanes)
  run_batch();
  EXPECT_EQ(checksum::ra_generations() - (before + first), 0u)
      << "repeat batch of the same size must reuse the cached setup";
}

TEST(ProtectionPlanBatch, ResolutionFailureIsIsolatedPerLane) {
  // n = 12 is divisible by 3: the checksum encoding degenerates and plan
  // resolution throws. The batch must report it per lane, not throw.
  const std::size_t n = 12;
  engine::BatchEngine eng(2);
  std::vector<cplx> in(n * 2, cplx{1.0, 0.0}), out(n * 2);
  const std::vector<engine::Lane> lanes{{in.data(), out.data(), nullptr},
                                        {in.data() + n, out.data() + n,
                                         nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = Options::online_opt(true);
  const auto report = eng.submit_batch(lanes, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 2u);
  for (const auto& err : report.errors) EXPECT_FALSE(err.empty());
  for (const auto& ex : report.exceptions) {
    ASSERT_NE(ex, nullptr);
    EXPECT_THROW(std::rethrow_exception(ex), std::invalid_argument);
  }
}

TEST(ProtectionPlanBatch, ArenaHighWaterTrimReleasesStaging) {
  engine::BatchEngine eng(1);
  engine::BatchOptions bopts;
  bopts.abft = Options::online_opt(true);
  bopts.preserve_inputs = true;  // every lane stages a copy in scratch

  // The one worker's scratch capacity in bytes, read on that worker. The
  // task takes nothing, so its frame leaves the trim rule untouched.
  auto worker_scratch = [&] {
    std::size_t bytes = 0;
    (void)eng
        .submit_tasks(1, [&](std::size_t, Stats&) {
          bytes = scratch::capacity();
        })
        .get();
    return bytes;
  };

  const std::size_t big = 1 << 14;
  auto big_in = random_vector(big, InputDistribution::kUniform, 3);
  std::vector<cplx> big_out(big);
  const engine::Lane big_lane{big_in.data(), big_out.data(), nullptr};
  (void)eng.submit_batch({&big_lane, 1}, big, bopts).get();
  const std::size_t after_big = worker_scratch();
  EXPECT_GE(after_big, big * sizeof(cplx));

  const std::size_t small = 1 << 6;
  auto small_in = random_vector(small, InputDistribution::kUniform, 4);
  std::vector<cplx> small_out(small);
  const engine::Lane small_lane{small_in.data(), small_out.data(), nullptr};
  for (int i = 0; i < 4; ++i) {
    (void)eng.submit_batch({&small_lane, 1}, small, bopts).get();
  }
  const std::size_t after_small = worker_scratch();
  EXPECT_LT(after_small, after_big / kTrimFactor)
      << "worker scratch should trim to the recent high-water mark";

  // And it grows right back when demand returns.
  (void)eng.submit_batch({&big_lane, 1}, big, bopts).get();
  EXPECT_GE(worker_scratch(), after_big);
}

TEST(ProtectionPlanBatch, FtPlanReusesItsPlanAcrossCalls) {
  const std::size_t n = 1 << 9;
  FtPlan plan(n);
  auto x = random_vector(n, InputDistribution::kUniform, 11);
  (void)plan.forward(x);  // first call resolves and latches the plan
  const auto builds_before = cache_row("protection-plan").misses;
  const auto gens_before = checksum::ra_generations();
  for (int i = 0; i < 10; ++i) (void)plan.forward(x);
  EXPECT_EQ(cache_row("protection-plan").misses, builds_before);
  EXPECT_EQ(checksum::ra_generations(), gens_before);
}

}  // namespace
}  // namespace ftfft
