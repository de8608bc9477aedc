#include "common/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>

namespace ftfft {

namespace {

// A typo'd knob (FTFFT_ENGINE_THREADS=4x, an out-of-range value, ...) used
// to be silently truncated by strtoull and could misconfigure a kernel;
// now it falls back to the default and warns once per variable so the
// message doesn't flood per-plan readers.
void warn_bad_value(const char* name, const char* raw, const char* why) {
  static std::mutex mu;
  static std::set<std::string> warned;
  std::lock_guard<std::mutex> lock(mu);
  if (warned.insert(name).second) {
    std::fprintf(stderr,
                 "ftfft: ignoring %s=\"%s\" (%s); using the default\n", name,
                 raw, why);
  }
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  // strtoull accepts a leading '-' and wraps the value; reject it up front.
  const char* p = raw;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '-') {
    warn_bad_value(name, raw, "negative value for a non-negative knob");
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) {
    warn_bad_value(name, raw, "not a number");
    return fallback;
  }
  if (*end != '\0') {
    warn_bad_value(name, raw, "trailing garbage after the number");
    return fallback;
  }
  if (errno == ERANGE || v > static_cast<unsigned long long>(
                                 static_cast<std::size_t>(-1))) {
    warn_bad_value(name, raw, "value out of range");
    return fallback;
  }
  return static_cast<std::size_t>(v);
}

long env_long(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw) {
    warn_bad_value(name, raw, "not a number");
    return fallback;
  }
  if (*end != '\0') {
    warn_bad_value(name, raw, "trailing garbage after the number");
    return fallback;
  }
  if (errno == ERANGE) {
    warn_bad_value(name, raw, "value out of range");
    return fallback;
  }
  return v;
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (std::strcmp(raw, "1") == 0 || std::strcmp(raw, "on") == 0 ||
      std::strcmp(raw, "true") == 0 || std::strcmp(raw, "yes") == 0) {
    return true;
  }
  if (std::strcmp(raw, "0") == 0 || std::strcmp(raw, "off") == 0 ||
      std::strcmp(raw, "false") == 0 || std::strcmp(raw, "no") == 0) {
    return false;
  }
  warn_bad_value(name, raw, "not a boolean (1/0/on/off/true/false/yes/no)");
  return fallback;
}

std::size_t plan_cache_capacity() {
  // Generous default: a serving process juggling 64 distinct
  // (size, options) combinations per cache is already unusual, and each
  // entry is O(n) memory at most.
  static const std::size_t cap = env_size("FTFFT_PLAN_CACHE_CAP", 64);
  return cap;
}

long bench_scale_shift() { return env_long("FTFFT_BENCH_SCALE", 0); }

std::size_t bench_runs_percent() {
  return env_size("FTFFT_BENCH_RUNS", 100);
}

std::size_t scaled_runs(std::size_t base) {
  const std::size_t pct = bench_runs_percent();
  const std::size_t scaled = base * pct / 100;
  return scaled == 0 ? 1 : scaled;
}

std::size_t scaled_size(std::size_t base, std::size_t min_size) {
  const long shift = bench_scale_shift();
  std::size_t n = base;
  if (shift >= 0) {
    n = base << shift;
  } else {
    n = base >> (-shift);
  }
  return n < min_size ? min_size : n;
}

}  // namespace ftfft
