// Cache-line-aligned storage for long-lived plan tables (checksum weight
// vectors, DMR twiddle tables). std::vector's allocator guarantees only 16
// bytes, so a table's offset within its cache lines, and the speed of the
// kernels streaming it, would follow the process's allocation history.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace ftfft {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  CacheAlignedAllocator() noexcept = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}
  [[nodiscard]] T* allocate(std::size_t count) {
    return static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }
  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace ftfft
