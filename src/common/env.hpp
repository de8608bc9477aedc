// Environment-variable knobs for the library and benchmark harnesses.
//
// FTFFT_PLAN_CACHE_CAP bounds every process-wide plan cache (decomposition
// trees, in-place plans, checksum weight vectors, ABFT ProtectionPlans) to
// that many entries each, evicted least-recently-used; 0 removes the bound.
// FTFFT_PLAN_VERIFY re-checks a cached plan's seal every k-th acquire (0 =
// off). Both are read once, at the first plan-cache insertion or
// plan_cache_stats() call (common/plan_registry.hpp), never before main().
//
// FTFFT_SIMD forces the SIMD kernel backend ("scalar" | "avx2" | "neon");
// unset or unavailable values fall back to runtime detection. Read at first
// kernel dispatch by src/simd/dispatch.cpp.
//
// FTFFT_ENGINE_THREADS sets the worker count of every engine::BatchEngine
// constructed with num_threads = 0 — including the process-wide shared()
// engine — so tests, CI and co-tenant
// deployments can bound the pool without code changes; 0/unset falls back
// to std::thread::hardware_concurrency(). Read at engine construction.
//
// FTFFT_ENGINE_QUEUE_CAP bounds each BatchEngine's pending-lane count
// (lanes, not jobs, so a 1000-lane batch occupies 1000 slots; 0/unset =
// unbounded). A submission that does not fit blocks until enough queued
// lanes retire; the engine's own worker threads bypass the cap. Read at
// engine construction; BatchEngine::set_queue_cap overrides at runtime.
//
// The paper's experiments ran at N = 2^25..2^28 sequential and N = 2^31..2^34
// on 128..1024 cores of Tianhe-2. This reproduction defaults to sizes that a
// single-core container finishes in minutes; FTFFT_BENCH_SCALE shifts every
// benchmark's problem sizes by that many powers of two and FTFFT_BENCH_RUNS
// scales repetition counts, so the original scale can be approached on bigger
// machines without editing code.
#pragma once

#include <cstddef>
#include <string>

namespace ftfft {

/// Reads a non-negative integer env var; returns fallback when unset. A
/// malformed value — trailing garbage ("4x"), a negative number, or one out
/// of range — also returns the fallback and warns on stderr once per
/// variable instead of silently truncating.
std::size_t env_size(const char* name, std::size_t fallback);

/// Reads a (possibly negative) integer env var; same validation rules.
long env_long(const char* name, long fallback);

/// Reads a boolean env var ("1"/"on"/"true"/"yes" vs "0"/"off"/"false"/
/// "no"); unset or unrecognized values return the fallback (with the same
/// warn-once on unrecognized text).
bool env_flag(const char* name, bool fallback);

/// Process default for the max_correctable_errors knobs, from
/// FTFFT_MAX_ERRORS (default 1). Read on every call, so a process that
/// changes the variable sees the new value in the next options it builds.
int max_errors_default();

/// LRU capacity for each process-wide plan cache, from FTFFT_PLAN_CACHE_CAP
/// (default generous; 0 = unbounded). Read once at first use.
std::size_t plan_cache_capacity();

/// log2 shift applied to benchmark problem sizes (default 0).
long bench_scale_shift();

/// Multiplier (percent) applied to benchmark repetition counts (default 100).
std::size_t bench_runs_percent();

/// Scales a repetition count by FTFFT_BENCH_RUNS (keeps at least 1).
std::size_t scaled_runs(std::size_t base);

/// Applies the log2 shift to a problem size (keeps at least min_size).
std::size_t scaled_size(std::size_t base, std::size_t min_size = 16);

}  // namespace ftfft
