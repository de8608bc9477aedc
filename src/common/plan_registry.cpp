#include "common/plan_registry.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/env.hpp"

namespace ftfft {

namespace {

struct Enrolled {
  std::mutex mu;
  std::vector<detail::PlanCache*> caches;
};

// Meyers singleton so enrollment from any static initializer is safe
// regardless of translation-unit order; it is constructed inside the first
// cache's constructor, so it outlives every enrolled cache. Sweeps hold its
// lock while they visit the caches, which keeps a withdrawing cache alive
// until the sweep is done (cache locks are never held while taking it).
Enrolled& enrolled() {
  static Enrolled instance;
  return instance;
}

template <typename Fn>
void for_each_cache(Fn&& fn) {
  Enrolled& e = enrolled();
  std::scoped_lock lock(e.mu);
  for (detail::PlanCache* cache : e.caches) fn(*cache);
}

}  // namespace

namespace detail {

PlanCache::PlanCache(const char* name) : name_(name) {
  Enrolled& e = enrolled();
  std::scoped_lock lock(e.mu);
  e.caches.push_back(this);
}

PlanCache::~PlanCache() {
  Enrolled& e = enrolled();
  std::scoped_lock lock(e.mu);
  e.caches.erase(std::find(e.caches.begin(), e.caches.end(), this));
}

void PlanCache::latch_env_defaults() {
  if (capacity_ == kFromEnv) capacity_ = plan_cache_capacity();
  if (verify_interval_ == kFromEnv) {
    verify_interval_ = default_plan_verify_interval();
  }
}

std::size_t default_plan_verify_interval() {
  // Latched once: re-hashing megabytes of twiddles on every acquire is a
  // measurable tax, so acquire-time verification is opt-in (scrub sweeps
  // and fault campaigns turn it on).
  static const std::size_t interval = env_size("FTFFT_PLAN_VERIFY", 0);
  return interval;
}

void reset_plan_cache(std::string_view name,
                      std::optional<std::size_t> capacity) {
  bool found = false;
  for_each_cache([&](PlanCache& cache) {
    if (found || name != cache.name()) return;
    found = true;
    cache.clear();
    if (capacity) cache.set_capacity(*capacity);
  });
  if (!found) {
    throw std::invalid_argument("reset_plan_cache: no plan cache named '" +
                                std::string(name) + "'");
  }
}

}  // namespace detail

std::vector<PlanCacheStats> plan_cache_stats() {
  std::vector<PlanCacheStats> stats;
  for_each_cache(
      [&](detail::PlanCache& cache) { stats.push_back(cache.snapshot()); });
  std::sort(stats.begin(), stats.end(),
            [](const PlanCacheStats& a, const PlanCacheStats& b) {
              return std::strcmp(a.name, b.name) < 0;
            });
  return stats;
}

std::size_t scrub_plan_caches() {
  std::size_t evicted = 0;
  for_each_cache([&](detail::PlanCache& cache) { evicted += cache.scrub(); });
  return evicted;
}

void set_plan_verify_interval(std::size_t interval) {
  for_each_cache(
      [&](detail::PlanCache& cache) { cache.set_verify_interval(interval); });
}

}  // namespace ftfft
