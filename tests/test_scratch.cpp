// Tests for the per-thread scratch workspace (common/scratch.hpp) and for
// its purpose: protected transforms that, once warm, take no page faults.
//
// The Scratch suite pins the arena's contract — alignment, frame nesting,
// pointer stability across growth, unwinding, per-thread isolation and the
// shared high-water trim rule. The ScratchSteadyState suite counts minor
// page faults over repeated protected transforms at n = 2^16: per-call
// working buffers that are freed and reallocated fault their pages in on
// every call (glibc returns blocks this large to the OS), while buffers on
// the workspace stay resident.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "abft/protected_fft.hpp"
#include "abft/real_protection.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "engine/batch_engine.hpp"
#include "parallel/parallel_fft.hpp"

namespace ftfft {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % scratch::kAlignment == 0;
}

// Leaves the calling thread's workspace as one block that holds `bytes`
// (an outermost frame always closes on at most one block), so the pointer
// arithmetic below does not depend on earlier tests.
void reserve(std::size_t bytes) {
  scratch::Frame frame;
  (void)frame.take<char>(bytes);
}

TEST(Scratch, BlocksAre64ByteAligned) {
  scratch::Frame frame;
  for (std::size_t count : {1u, 3u, 7u, 64u, 1000u}) {
    EXPECT_TRUE(aligned64(frame.take<cplx>(count).data())) << count;
    EXPECT_TRUE(aligned64(frame.take<double>(count).data())) << count;
    EXPECT_TRUE(aligned64(frame.take<char>(count).data())) << count;
  }
  EXPECT_TRUE(frame.take<cplx>(0).empty());
}

TEST(Scratch, TakeZeroedValueInitializes) {
  reserve(1u << 16);
  cplx* dirty_at = nullptr;
  {
    scratch::Frame frame;
    const auto dirty = frame.take<cplx>(512);
    std::fill(dirty.begin(), dirty.end(), cplx(7.0, -7.0));
    dirty_at = dirty.data();
  }
  scratch::Frame frame;
  const auto zeroed = frame.take_zeroed<cplx>(512);
  ASSERT_EQ(zeroed.data(), dirty_at) << "expected the same storage back";
  for (const cplx& v : zeroed) ASSERT_EQ(v, cplx(0.0, 0.0));
}

TEST(Scratch, NestedFramesRestoreTheTop) {
  reserve(1u << 16);
  scratch::Frame outer;
  (void)outer.take<cplx>(100);
  cplx* first_inner = nullptr;
  {
    scratch::Frame inner;
    first_inner = inner.take<cplx>(50).data();
    {
      scratch::Frame innermost;
      (void)innermost.take<cplx>(10);
    }
    (void)inner.take<cplx>(5);
  }
  {
    scratch::Frame inner;
    EXPECT_EQ(inner.take<cplx>(50).data(), first_inner)
        << "a closed frame must give its storage back";
  }
}

TEST(Scratch, OnlyTheInnermostFrameMayTake) {
  scratch::Frame outer;
  scratch::Frame inner;
  EXPECT_THROW((void)outer.take<cplx>(4), std::logic_error);
  EXPECT_NO_THROW((void)inner.take<cplx>(4));
}

TEST(Scratch, OuterBlocksSurviveGrowthInAnInnerFrame) {
  scratch::Frame outer;
  const auto held = outer.take<double>(64);
  for (std::size_t i = 0; i < held.size(); ++i) held[i] = double(i);
  const std::size_t before = scratch::capacity();
  {
    scratch::Frame inner;
    // Far beyond anything the outer frame's chunk can hold: forces growth.
    const auto big = inner.take<double>(before + (1u << 20));
    std::fill(big.begin(), big.end(), -1.0);
    EXPECT_GT(scratch::capacity(), before);
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    ASSERT_EQ(held[i], double(i)) << "outer block moved or was overwritten";
  }
}

TEST(Scratch, GrownChunksMergeIntoOneBlockAtTheOutermostClose) {
  {
    scratch::Frame frame;
    (void)frame.take<char>(1);
  }
  const std::size_t base = scratch::capacity();
  const std::size_t bytes = base + (3u << 20);
  {
    scratch::Frame frame;
    (void)frame.take<char>(64);
    (void)frame.take<char>(bytes);
  }
  // One block sized to the peak: the same demand now fits without growth.
  const std::size_t merged = scratch::capacity();
  EXPECT_GE(merged, bytes + 64);
  {
    scratch::Frame frame;
    (void)frame.take<char>(64);
    (void)frame.take<char>(bytes);
    EXPECT_EQ(scratch::capacity(), merged);
  }
  EXPECT_EQ(scratch::capacity(), merged);
}

TEST(Scratch, AThrowingFrameUnwindsCleanly) {
  reserve(1u << 16);
  scratch::Frame outer;
  (void)outer.take<cplx>(16);
  cplx* probe = nullptr;
  {
    scratch::Frame inner;
    probe = inner.take<cplx>(32).data();
  }
  EXPECT_THROW(
      {
        scratch::Frame inner;
        (void)inner.take<cplx>(8);
        (void)inner.take<cplx>(1u << 18);  // grows the workspace mid-frame
        throw UncorrectableError("scratch test: simulated fault");
      },
      UncorrectableError);
  scratch::Frame after;
  EXPECT_EQ(after.take<cplx>(32).data(), probe)
      << "the unwound frame must have restored the top";
}

TEST(Scratch, EngineWorkersGetDisjointStorage) {
  engine::BatchEngine eng(2);
  constexpr std::size_t kCount = 4096;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool both_ran_together = true;
  std::vector<cplx*> blocks(2, nullptr);
  std::vector<std::thread::id> threads(2);
  std::array<bool, 2> intact{};  // one byte each: written concurrently

  // Each item holds its block until both items hold theirs, so the two
  // items provably overlap in time on the two workers.
  auto fut = eng.submit_tasks(
      2,
      [&](std::size_t i, abft::Stats&) {
        scratch::Frame frame;
        const auto block = frame.take<cplx>(kCount);
        std::fill(block.begin(), block.end(), cplx(double(i + 1), 0.0));
        {
          std::unique_lock<std::mutex> lock(mu);
          blocks[i] = block.data();
          threads[i] = std::this_thread::get_id();
          ++arrived;
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(20),
                           [&] { return arrived == 2; })) {
            both_ran_together = false;
          }
        }
        intact[i] = std::all_of(block.begin(), block.end(), [&](cplx v) {
          return v == cplx(double(i + 1), 0.0);
        });
      },
      {}, /*chunk=*/1);
  const auto report = fut.get();
  ASSERT_EQ(report.failed_lanes, 0u);
  ASSERT_TRUE(both_ran_together);
  EXPECT_NE(threads[0], threads[1]);
  const cplx* a = blocks[0];
  const cplx* b = blocks[1];
  EXPECT_TRUE(a + kCount <= b || b + kCount <= a) << "blocks overlap";
  EXPECT_TRUE(intact[0]);
  EXPECT_TRUE(intact[1]);
}

TEST(Scratch, ThreadsStartEmptyAndKeepTheirOwnCapacity) {
  {
    scratch::Frame frame;
    (void)frame.take<char>(1u << 16);
  }
  std::size_t fresh = 1, grown = 0;
  std::thread([&] {
    fresh = scratch::capacity();
    {
      scratch::Frame frame;
      (void)frame.take<char>(1u << 20);
    }
    grown = scratch::capacity();
  }).join();
  EXPECT_EQ(fresh, 0u);
  EXPECT_GE(grown, std::size_t{1} << 20);
  EXPECT_GE(scratch::capacity(), std::size_t{1} << 16);
}

TEST(Scratch, HighWaterTrimShrinksAfterPatienceToTheStreakPeak) {
  std::thread([] {
    const std::size_t big = 8u << 20;
    {
      scratch::Frame frame;
      (void)frame.take<char>(big);
    }
    ASSERT_GE(scratch::capacity(), big);
    const std::size_t cap = scratch::capacity();
    // Peaks at or below capacity / kTrimFactor; the largest wins.
    const std::size_t peaks[] = {cap / kTrimFactor, cap / 16};
    static_assert(kTrimPatience == 2, "the loop below assumes patience 2");
    for (int use = 0; use < kTrimPatience; ++use) {
      EXPECT_EQ(scratch::capacity(), cap) << "shrank before the patience ran out";
      scratch::Frame frame;
      (void)frame.take<char>(peaks[use]);
    }
    EXPECT_EQ(scratch::capacity(), cap / kTrimFactor);

    // A use near capacity between two small ones resets the streak.
    const std::size_t after = scratch::capacity();
    for (std::size_t peak : {after / 64, after / 2, after / 64}) {
      scratch::Frame frame;
      (void)frame.take<char>(peak);
    }
    EXPECT_EQ(scratch::capacity(), after);

    // Frames that take nothing are no evidence either way.
    for (int use = 0; use < 2 * kTrimPatience; ++use) scratch::Frame idle;
    EXPECT_EQ(scratch::capacity(), after);

    // Nor are frames an exception unwound: an aborted transform stopped
    // short of its demand.
    for (int use = 0; use < 2 * kTrimPatience; ++use) {
      try {
        scratch::Frame frame;
        (void)frame.take<char>(1u << 10);
        throw UncorrectableError("scratch test: aborted use");
      } catch (const UncorrectableError&) {
      }
    }
    EXPECT_EQ(scratch::capacity(), after);
  }).join();
}

TEST(Scratch, HighWaterTrimRuleInIsolation) {
  HighWaterTrim trim;
  EXPECT_EQ(trim.end_use(100, 400), 0u);
  EXPECT_EQ(trim.end_use(50, 400), 100u);
  EXPECT_EQ(trim.end_use(101, 400), 0u);  // above capacity / 4
  EXPECT_EQ(trim.end_use(10, 400), 0u);
  trim.reset();
  EXPECT_EQ(trim.end_use(10, 400), 0u);
  EXPECT_EQ(trim.end_use(20, 400), 20u);
  EXPECT_EQ(trim.end_use(0, 0), 0u);
}

// ------------------------------------------------------- steady state

#if defined(__linux__)

constexpr std::size_t kN = std::size_t{1} << 16;
constexpr int kCalls = 20;
// "A few" per call: small bookkeeping allocations may touch a fresh heap
// page now and then. A per-call buffer scaled by n costs 100+ per call.
constexpr long kMaxFaultsPerCall = 4;

long minor_faults(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_minflt;
}

// The perfbench canary: two corrupted elements in one input checksum slot
// defeat the t = 1 memory checksums, so the transform must throw. The
// faults overwrite the input, so every call starts from a fresh copy.
void run_canary(const std::vector<cplx>& x, std::vector<cplx>& in,
                std::vector<cplx>& out) {
  std::copy(x.begin(), x.end(), in.begin());
  fault::Injector inj;
  const std::size_t k = 256;  // the online split of 2^16 is 256 x 256
  inj.schedule(fault::FaultSpec::memory_set(
      fault::Phase::kInputAfterChecksum, 0, 1, {7.0, 1.0}));
  inj.schedule(fault::FaultSpec::memory_set(
      fault::Phase::kInputAfterChecksum, 0, 1 + k, {-2.0, 6.0}));
  abft::Options o = abft::Options::online_opt(true);
  o.max_correctable_errors = 1;
  o.injector = &inj;
  abft::Stats stats;
  EXPECT_THROW(abft::protected_transform(in.data(), out.data(), kN, o, stats),
               UncorrectableError);
}

// Warms `op` and the canary, then counts the minor faults of kCalls calls
// with one throwing canary call in the middle. Warm means run more than
// kTrimPatience times: a workspace that grew merges into a fresh block
// when the outermost frame closes, and the next call touches it first.
template <typename Op>
void expect_steady(Op op, int who) {
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its start-up value. Left dynamic, it
  // rises as earlier tests free large blocks, and whether a per-call
  // buffer then faults depends on the heap's history rather than on the
  // code under test.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const auto x = random_vector(kN, InputDistribution::kUniform, 5);
  std::vector<cplx> canary_in(kN), canary_out(kN);
  for (int i = 0; i <= kTrimPatience; ++i) {
    op();
    run_canary(x, canary_in, canary_out);
  }

  const long before = minor_faults(who);
  for (int i = 0; i < kCalls; ++i) {
    if (i == kCalls / 2) run_canary(x, canary_in, canary_out);
    op();
  }
  const long faults = minor_faults(who) - before;
  EXPECT_LE(faults, kMaxFaultsPerCall * kCalls)
      << faults << " minor faults over " << kCalls << " warm calls";
}

TEST(ScratchSteadyState, OnlineComputationalFt) {
  auto x = random_vector(kN, InputDistribution::kUniform, 1);
  std::vector<cplx> in(kN), out(kN);
  const abft::Options o = abft::Options::online_opt(false);
  expect_steady(
      [&] {
        std::copy(x.begin(), x.end(), in.begin());
        abft::Stats stats;
        abft::protected_transform(in.data(), out.data(), kN, o, stats);
      },
      RUSAGE_THREAD);
}

TEST(ScratchSteadyState, OnlineMemoryFt) {
  auto x = random_vector(kN, InputDistribution::kUniform, 2);
  std::vector<cplx> in(kN), out(kN);
  const abft::Options o = abft::Options::online_opt(true);
  expect_steady(
      [&] {
        std::copy(x.begin(), x.end(), in.begin());
        abft::Stats stats;
        abft::protected_transform(in.data(), out.data(), kN, o, stats);
      },
      RUSAGE_THREAD);
}

TEST(ScratchSteadyState, Inplace) {
  auto x = random_vector(kN, InputDistribution::kUniform, 3);
  std::vector<cplx> data(kN);
  const abft::Options o = abft::Options::online_opt(true);
  expect_steady(
      [&] {
        std::copy(x.begin(), x.end(), data.begin());
        abft::Stats stats;
        abft::protected_transform_inplace(data.data(), kN, o, stats);
      },
      RUSAGE_THREAD);
}

TEST(ScratchSteadyState, RealForward) {
  auto x = random_vector(kN, InputDistribution::kUniform, 4);
  std::vector<double> re(kN);
  for (std::size_t i = 0; i < kN; ++i) re[i] = x[i].real();
  std::vector<cplx> spec(kN / 2 + 1);
  const abft::Options o = abft::Options::online_opt(true);
  expect_steady(
      [&] {
        abft::Stats stats;
        abft::protected_r2c(re.data(), spec.data(), kN, o, stats);
      },
      RUSAGE_THREAD);
}

TEST(ScratchSteadyState, RealInverse) {
  auto x = random_vector(kN / 2 + 1, InputDistribution::kUniform, 6);
  x.front().imag(0.0);
  x.back().imag(0.0);
  std::vector<cplx> spec(kN / 2 + 1);
  std::vector<double> re(kN);
  const abft::Options o = abft::Options::online_opt(true);
  expect_steady(
      [&] {
        std::copy(x.begin(), x.end(), spec.begin());
        abft::Stats stats;
        abft::protected_c2r(spec.data(), re.data(), kN, o, stats);
      },
      RUSAGE_THREAD);
}

TEST(ScratchSteadyState, Sharded) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Each submission makes a few dozen small bookkeeping allocations (job,
  // state, futures). The sanitizer allocators hand them fresh, shadowed
  // pages instead of recycling freed ones, so a process-wide count
  // measures the allocator, not scratch.
  GTEST_SKIP() << "process-wide fault counts mean nothing under ASan/TSan";
#endif
  // The phases run on the engine's worker, so count the whole process.
  engine::BatchEngine eng(1);
  const auto x = random_vector(kN, InputDistribution::kUniform, 7);
  std::vector<cplx> buf(x);
  const auto opts = parallel::ParallelOptions::opt_ft_fftw();
  expect_steady(
      [&] {
        // The returned spectrum recycles the input vector, so reusing it
        // keeps the test's own buffers out of the count.
        std::copy(x.begin(), x.end(), buf.begin());
        buf = parallel::submit_parallel(16, std::move(buf), opts, {}, &eng)
                  .get();
      },
      RUSAGE_SELF);
}

#else

TEST(ScratchSteadyState, SkippedOffLinux) {
  GTEST_SKIP() << "minor page-fault counts come from Linux getrusage";
}

#endif

}  // namespace
}  // namespace ftfft
