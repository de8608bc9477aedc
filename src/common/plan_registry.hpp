// Shared LRU-bounded cache for immutable, expensive-to-build plan objects.
//
// Process-wide caches (the mixed-radix plan tree, the iterative in-place
// plan, the checksum weight and syndrome node vectors, the ABFT protection
// plans) used to grow monotonically. A long-lived server transforming many
// distinct sizes would pin all of them forever. PlanRegistry gives every one
// of those caches the same contract: thread-safe get-or-build,
// least-recently-used eviction beyond a configurable capacity
// (FTFFT_PLAN_CACHE_CAP by default, see common/env.hpp), and
// hit/miss/eviction counters for tests and monitoring.
//
// An owning module declares its cache as one namespace-scope object:
//
//   PlanRegistry<std::size_t, RealFftPlan> cache("real-plan");
//
// The constructor enrolls it by name for plan_cache_stats(),
// scrub_plan_caches() and set_plan_verify_interval(), so every cache a
// binary links is listed before its first plan is built. Construction reads
// no environment: FTFFT_PLAN_CACHE_CAP and FTFFT_PLAN_VERIFY are latched at
// the first insertion or stats call, never before main(). Plan caches must
// not be used from static initializers.
//
// Values are handed out as shared_ptr<const V>: eviction only drops the
// registry's reference, so a plan still executing somewhere stays alive
// until its last user releases it.
//
// Plan-state protection (see common/seal.hpp): every value is sealed at
// insertion — by default over the spans its collect_state() lists — and
// the bytes can be re-verified later, on an acquire cadence
// (set_verify_interval, FTFFT_PLAN_VERIFY) and in an explicit scrub()
// sweep. A seal mismatch means the cached bytes changed after build (a
// hardware upset in long-lived plan memory); the entry is evicted and the
// next acquire rebuilds it instead of serving poison. Detected corruptions
// and verification sweeps are counted in PlanCacheStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/seal.hpp"

namespace ftfft {

/// One cache's counters at a point in time (see plan_cache_stats()).
struct PlanCacheStats {
  const char* name = "";      ///< stable identifier, e.g. "protection-plan"
  std::size_t size = 0;       ///< entries currently cached
  std::size_t capacity = 0;   ///< LRU bound (0 = unbounded)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;   ///< = builds: every miss runs the builder
  std::uint64_t evictions = 0;
  std::uint64_t verifications = 0;  ///< seal re-checks performed
  std::uint64_t corruptions = 0;    ///< seal mismatches (entries evicted)
};

/// Snapshot of every named process-wide plan cache, sorted by name. This is
/// the tuning feed for FTFFT_PLAN_CACHE_CAP: a cache with steady evictions
/// and a hit rate below its neighbors is thrashing its bound.
std::vector<PlanCacheStats> plan_cache_stats();

/// Re-verifies the integrity seal of every entry in every sealed plan cache,
/// evicting corrupted entries so the next acquire rebuilds them. Returns the
/// number of corrupted entries evicted. Safe to call from a background
/// scrubber thread; each cache is swept under its own lock.
std::size_t scrub_plan_caches();

/// Sets the verify-on-acquire interval of every registered cache: an entry's
/// seal is re-checked every `interval`-th acquire (1 = every acquire, 0 =
/// off). Overrides the FTFFT_PLAN_VERIFY default process-wide, also for
/// caches first used after the call.
void set_plan_verify_interval(std::size_t interval);

/// The default sealer: FNV-1a over the spans `value.collect_state()` lists.
template <typename V>
std::uint64_t seal_state(const V& value) {
  StateSpans spans;
  value.collect_state(spans);
  return seal_spans(spans);
}

namespace detail {

/// What every PlanRegistry enrolls under its name: the part of a cache the
/// process-wide sweeps above can reach without knowing its key and value
/// types.
class PlanCache {
 public:
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] virtual PlanCacheStats snapshot() = 0;
  virtual std::size_t scrub() = 0;
  virtual void set_verify_interval(std::size_t interval) = 0;
  virtual void set_capacity(std::size_t capacity) = 0;
  virtual void clear() = 0;

 protected:
  explicit PlanCache(const char* name);  // enrolls
  ~PlanCache();                          // withdraws

  /// Resolves the settings nothing has set yet from FTFFT_PLAN_CACHE_CAP
  /// and FTFFT_PLAN_VERIFY. Called under the owner's lock before the first
  /// insertion and by snapshot().
  void latch_env_defaults();

  static constexpr std::size_t kFromEnv = SIZE_MAX;
  const char* const name_;
  std::size_t capacity_ = kFromEnv;
  std::size_t verify_interval_ = kFromEnv;
};

/// FTFFT_PLAN_VERIFY as latched at first read (see common/env.hpp).
std::size_t default_plan_verify_interval();

/// Empties the cache enrolled as `name` and, given `capacity`, rebounds it.
/// Throws std::invalid_argument for a name no cache is enrolled under. For
/// tests that need a cold or tightly bounded cache.
void reset_plan_cache(std::string_view name,
                      std::optional<std::size_t> capacity = std::nullopt);

}  // namespace detail

/// Thread-safe LRU map from Key to shared immutable Value.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class PlanRegistry final : public detail::PlanCache {
 public:
  /// Hashes a value's immutable payload bytes at insertion time; re-run to
  /// verify. Must be pure (same value => same seal). nullptr disables
  /// plan-state verification.
  using Sealer = std::uint64_t (*)(const Value&);

  /// Enrolls the cache as `name` (a string literal: it is kept, not
  /// copied). The capacity and verify interval default from the
  /// environment at first use; see the file comment.
  explicit PlanRegistry(const char* name, Sealer sealer = &seal_state<Value>)
      : PlanCache(name), sealer_(sealer) {}

  /// Counters snapshot under this cache's name for plan_cache_stats().
  [[nodiscard]] PlanCacheStats snapshot() override {
    std::scoped_lock lock(mu_);
    latch_env_defaults();
    return {name_,   lru_.size(), capacity_,      hits_,
            misses_, evictions_,  verifications_, corruptions_};
  }

  /// Returns the cached value for `key`, building it via `build()` on a
  /// miss. `build` must return std::shared_ptr<const Value> and runs
  /// *outside* the registry lock (plan construction can be slow); two
  /// threads missing the same key concurrently may both build, in which
  /// case the first insertion wins and the loser's copy is discarded —
  /// sound because plans are immutable. With a sealer and a nonzero verify
  /// interval, a hit re-checks the entry's seal on the configured cadence;
  /// a mismatch evicts the corrupted entry and falls through to a rebuild,
  /// so the caller always receives verified-or-fresh state.
  template <typename Builder>
  std::shared_ptr<const Value> get_or_build(const Key& key, Builder&& build) {
    {
      std::scoped_lock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        if (!verify_entry_locked(it)) {
          ++misses_;  // corrupted: evicted below as if never cached
        } else {
          lru_.splice(lru_.begin(), lru_, it->second);
          ++hits_;
          return it->second->value;
        }
      } else {
        ++misses_;
      }
    }
    std::shared_ptr<const Value> built = build();
    const std::uint64_t seal = sealer_ ? sealer_(*built) : 0;
    std::scoped_lock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->value;
    }
    latch_env_defaults();  // entries exist only past this point
    lru_.push_front(Entry{key, std::move(built), seal, 0});
    map_.emplace(key, lru_.begin());
    evict_locked();
    return lru_.front().value;
  }

  /// Re-verifies every entry's seal, evicting corrupted ones. Returns the
  /// number evicted. No-op (returns 0) without a sealer.
  std::size_t scrub() override {
    if (!sealer_) return 0;
    std::scoped_lock lock(mu_);
    std::size_t evicted = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      ++verifications_;
      if (sealer_(*it->value) != it->seal) {
        map_.erase(it->key);
        it = lru_.erase(it);
        ++corruptions_;
        ++evicted;
      } else {
        it->acquires_since_verify = 0;
        ++it;
      }
    }
    return evicted;
  }

  /// Seal re-check cadence on acquire: every `interval`-th hit of an entry
  /// (1 = every acquire). 0 disables acquire-time verification (scrub()
  /// still works).
  void set_verify_interval(std::size_t interval) override {
    std::scoped_lock lock(mu_);
    verify_interval_ = interval;
  }

  void set_capacity(std::size_t capacity) override {
    std::scoped_lock lock(mu_);
    capacity_ = capacity;
    evict_locked();
  }

  void clear() override {
    std::scoped_lock lock(mu_);
    lru_.clear();
    map_.clear();
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::uint64_t seal = 0;
    std::size_t acquires_since_verify = 0;
  };
  using EntryIter = typename std::list<Entry>::iterator;

  /// Returns false (and evicts the entry) when its seal no longer matches.
  /// Called under mu_; hashing under the lock is acceptable because
  /// verification is off by default and campaigns use small plans.
  bool verify_entry_locked(
      typename std::unordered_map<Key, EntryIter, Hash>::iterator it) {
    if (!sealer_ || verify_interval_ == 0) return true;
    Entry& e = *it->second;
    if (++e.acquires_since_verify < verify_interval_) return true;
    e.acquires_since_verify = 0;
    ++verifications_;
    if (sealer_(*e.value) == e.seal) return true;
    ++corruptions_;
    lru_.erase(it->second);
    map_.erase(it);
    return false;
  }

  void evict_locked() {
    if (capacity_ == 0) return;  // kFromEnv is SIZE_MAX: never exceeded
    while (lru_.size() > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  std::mutex mu_;
  const Sealer sealer_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, EntryIter, Hash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t verifications_ = 0;
  std::uint64_t corruptions_ = 0;
};

}  // namespace ftfft
