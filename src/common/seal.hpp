// Integrity seals for long-lived immutable plan state.
//
// Cached plan objects (twiddle packs, checksum weight vectors, permutation
// tables) are written once at build time and then only read — so unlike the
// data-path checksums, which must tolerate legitimate round-off, a plan seal
// can demand exact byte equality. FNV-1a over the raw bytes is enough: it is
// deterministic, backend-independent, detects any single bit flip (and all
// realistic burst patterns), and hashes at memory speed, which is what a
// scrub sweep over megabytes of twiddles needs.
//
// Plans that reference shared sub-vectors include those bytes in their own
// seal (a "transitive" seal): a corrupted rA vector therefore invalidates
// every plan that holds it, and the rebuild re-acquires the sub-vector
// through its own verifying cache, which detects and rebuilds the vector
// itself. Composition is sound as long as verification is enabled on every
// registry (see PlanRegistry::set_verify_interval / scrub_plan_caches()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftfft {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// FNV-1a over `bytes` bytes starting at `data`, chained from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnv1aBasis) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// The byte spans that make up a plan's immutable state. Plans expose a
/// `collect_state(StateSpans&)` that appends every cached payload; the same
/// span list serves sealing, verification, and fault-campaign targeting
/// (Phase::kPlanState addresses spans by their position in this list).
struct StateSpans {
  struct Span {
    const void* data;
    std::size_t bytes;
  };
  std::vector<Span> spans;

  void add(const void* data, std::size_t bytes) {
    if (data != nullptr && bytes > 0) spans.push_back({data, bytes});
  }
  template <typename T, typename Alloc>
  void add_vec(const std::vector<T, Alloc>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
};

/// Chained FNV-1a over every span in order. Span boundaries are not mixed
/// into the hash; the span list of an immutable plan is itself immutable, so
/// boundary ambiguity cannot produce a false match in practice.
inline std::uint64_t seal_spans(const StateSpans& s) noexcept {
  std::uint64_t h = kFnv1aBasis;
  for (const auto& sp : s.spans) h = fnv1a(sp.data, sp.bytes, h);
  return h;
}

}  // namespace ftfft
