// Per-thread scratch workspace for the protected transforms.
//
// Every protected scheme needs working buffers whose size follows the
// transform: staging blocks, the postponed-verification backup, per-slot
// checksums. Allocated per call they cost more than the allocation: glibc
// hands blocks this large back to the OS when they are freed, so the next
// call faults every page in again and then value-initialises it. Instead
// each thread owns one bump arena that keeps its pages across calls.
//
//   scratch::Frame frame;                          // opens a frame
//   std::span<cplx> stage = frame.take<cplx>(n);   // 64-byte aligned, raw
//   ...                                            // ~Frame restores the top
//
// Frames nest (an r2c frame encloses its packed transform's frame) and are
// destroyed in reverse order of construction, which scoped objects
// guarantee — also when an UncorrectableError unwinds through them. Only
// the innermost open frame may take. Blocks are uninitialised: callers
// zero-fill the accumulators that need it (take_zeroed).
//
// To grow, the workspace adds a chunk, so blocks held by outer frames stay
// valid; when the outermost frame closes, the chunks merge into one block
// sized to the frame's peak. A high-water trim shrinks it, so one huge
// transform does not pin its scratch for the rest of the thread's life.
// Engine workers open one frame per job visit, so there a "use" is one
// job, lane staging copies included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>

namespace ftfft {

/// Capacity/peak ratio beyond which a reusable buffer counts as oversized,
/// and how many consecutive oversized uses it takes before the excess is
/// released. The patience keeps alternating big/small workloads from
/// reallocating every use.
inline constexpr std::size_t kTrimFactor = 4;
inline constexpr int kTrimPatience = 2;

/// The scratch workspace's high-water trim rule. The holder reports each
/// finished use (one outermost frame) with its peak demand; after
/// kTrimPatience consecutive uses whose peak stayed kTrimFactor below
/// capacity, it shrinks to the largest of those peaks.
class HighWaterTrim {
 public:
  /// Records one use that peaked at `peak` units against `capacity`.
  /// Returns the size to shrink to, or 0 to keep the capacity.
  [[nodiscard]] std::size_t end_use(std::size_t peak,
                                    std::size_t capacity) noexcept {
    if (capacity == 0 || peak * kTrimFactor > capacity) {
      reset();
      return 0;
    }
    streak_peak_ = std::max(streak_peak_, peak);
    if (++oversized_ < kTrimPatience) return 0;
    const std::size_t target = streak_peak_;
    reset();
    return target;
  }

  /// The holder grew: earlier small uses are no longer evidence.
  void reset() noexcept {
    oversized_ = 0;
    streak_peak_ = 0;
  }

 private:
  int oversized_ = 0;
  std::size_t streak_peak_ = 0;
};

namespace scratch {

inline constexpr std::size_t kAlignment = 64;

/// Bytes the calling thread's workspace holds right now; read-only, for
/// tests and memory monitoring.
[[nodiscard]] std::size_t capacity() noexcept;

namespace detail {
/// What a frame saves on entry: the workspace top it restores, its nesting
/// depth, and the exceptions in flight when it opened (to tell an unwind
/// from a return).
struct Mark {
  std::size_t chunk, offset, used;
  int depth, uncaught;
};
}  // namespace detail

/// A scope on the calling thread's workspace: everything taken through it
/// is released when it is destroyed. Not movable, not shareable across
/// threads.
class Frame {
 public:
  Frame() noexcept;
  ~Frame();
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// `count` uninitialised elements, 64-byte aligned; empty for count 0.
  template <typename T>
  [[nodiscard]] std::span<T> take(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "scratch blocks are raw storage: T must be trivially "
                  "copyable");
    static_assert(alignof(T) <= kAlignment);
    if (count == 0) return {};
    if (count > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_alloc{};
    }
    return {static_cast<T*>(take_bytes(count * sizeof(T))), count};
  }

  /// take() with every element value-initialised, for accumulators.
  template <typename T>
  [[nodiscard]] std::span<T> take_zeroed(std::size_t count) {
    const std::span<T> s = take<T>(count);
    std::fill(s.begin(), s.end(), T{});
    return s;
  }

 private:
  void* take_bytes(std::size_t bytes);

  detail::Mark mark_;
};

}  // namespace scratch
}  // namespace ftfft
