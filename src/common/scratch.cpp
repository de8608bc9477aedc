#include "common/scratch.hpp"

#include <sys/mman.h>

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ftfft::scratch {
namespace {

std::size_t round_up(std::size_t bytes) noexcept {
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

// Chunks are mapped straight from the OS (page-aligned, so 64-byte
// aligned). Through malloc, a block freed by a merge or a trim lands in
// the heap and stays resident, and a freed large block also raises glibc's
// mmap threshold for the rest of the process (perfbench serial_faulty on
// a 4-vCPU AVX2 Xeon: 70.9 against 67.5 MiB peak RSS). munmap gives the
// pages straight back.
std::byte* map_chunk(std::size_t bytes) noexcept {
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return mem == MAP_FAILED ? nullptr : static_cast<std::byte*>(mem);
}

/// The calling thread's bump arena. The top is an offset into
/// chunks_[cur_]; frames save it on entry and restore it on exit.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace() { release(); }

  static Workspace& local() noexcept {
    thread_local Workspace ws;
    return ws;
  }

  detail::Mark open() noexcept {
    return {cur_, top_, used_, ++depth_, std::uncaught_exceptions()};
  }

  void close(const detail::Mark& m) noexcept {
    cur_ = m.chunk;
    top_ = m.offset;
    used_ = m.used;
    if (--depth_ == 0) settle(std::uncaught_exceptions() > m.uncaught);
  }

  void* take(std::size_t bytes, int depth) {
    if (depth != depth_) {
      throw std::logic_error(
          "scratch: take() on a frame that is not the innermost open frame");
    }
    if (bytes > static_cast<std::size_t>(-1) - kAlignment) {
      throw std::bad_alloc{};
    }
    bytes = round_up(bytes);
    if (chunks_.empty() || bytes > chunks_[cur_].bytes - top_) {
      // Move past the current chunk: reuse the next one if it fits, else
      // insert a fresh one there. Chunks before the top stay where they
      // are, so blocks held by outer frames remain valid. Doubling the
      // total bounds the chunk count of one outermost frame.
      const std::size_t next = chunks_.empty() ? 0 : cur_ + 1;
      if (next == chunks_.size() || chunks_[next].bytes < bytes) {
        const std::size_t size = std::max(bytes, capacity());
        chunks_.reserve(chunks_.size() + 1);
        std::byte* mem = map_chunk(size);
        if (mem == nullptr) throw std::bad_alloc{};
        chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(next),
                       Chunk{mem, size});
        trim_.reset();
      }
      cur_ = next;
      top_ = 0;
    }
    void* p = chunks_[cur_].mem + top_;
    top_ += bytes;
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    return p;
  }

  std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.bytes;
    return total;
  }

 private:
  struct Chunk {
    std::byte* mem;
    std::size_t bytes;
  };

  // The outermost frame closed: merge a grown workspace into one block
  // sized to the frame's peak, or apply the high-water trim. A frame that
  // took nothing is no evidence either way, and neither is one an
  // exception unwound: an aborted transform stopped short of its demand
  // (an UncorrectableError in layer 1 never takes the online backup). A
  // failed mapping leaves the workspace empty; the next take() maps (or
  // throws) as usual.
  void settle(bool unwinding) noexcept {
    const std::size_t peak = std::exchange(peak_, 0);
    if (peak == 0) return;
    std::size_t target = peak;
    if (chunks_.size() == 1) {
      if (unwinding) return;
      target = trim_.end_use(peak, chunks_[0].bytes);
    }
    if (target == 0) return;
    release();
    if (std::byte* mem = map_chunk(target)) chunks_.push_back({mem, target});
  }

  void release() noexcept {
    for (const Chunk& c : chunks_) munmap(c.mem, c.bytes);
    chunks_.clear();
    cur_ = 0;
    top_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;   // chunk the top sits in
  std::size_t top_ = 0;   // offset of the top within chunks_[cur_]
  std::size_t used_ = 0;  // bytes handed out to open frames
  std::size_t peak_ = 0;  // high-water of used_ in the outermost frame
  int depth_ = 0;
  HighWaterTrim trim_;
};

}  // namespace

Frame::Frame() noexcept : mark_(Workspace::local().open()) {}

Frame::~Frame() { Workspace::local().close(mark_); }

void* Frame::take_bytes(std::size_t bytes) {
  return Workspace::local().take(bytes, mark_.depth);
}

std::size_t capacity() noexcept { return Workspace::local().capacity(); }

}  // namespace ftfft::scratch
