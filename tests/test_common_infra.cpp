// Infrastructure pieces: timers, env knobs, error helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/complex.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/tile_transpose.hpp"
#include "common/timer.hpp"

namespace ftfft {
namespace {

// Distinct, exactly representable values so a misplaced element shows.
std::vector<cplx> iota_matrix(std::size_t count) {
  std::vector<cplx> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = {static_cast<double>(i), -0.5 * static_cast<double>(i)};
  }
  return v;
}

bool bitwise_equal(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(TileTranspose, RectangularMatchesNaiveLoop) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {17, 33}, {64, 512}, {512, 64}};
  for (const auto& [rows, cols] : shapes) {
    // Padded strides on both sides: the primitive must leave the gaps alone.
    for (const std::size_t pad : {std::size_t{0}, std::size_t{3}}) {
      const std::size_t ss = cols + pad, ds = rows + pad;
      const auto src = iota_matrix(rows * ss);
      std::vector<cplx> want(cols * ds, cplx{-1.0, -1.0});
      auto got = want;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          want[c * ds + r] = src[r * ss + c];
        }
      }
      transpose_tiled(src.data(), ss, got.data(), ds, rows, cols);
      EXPECT_TRUE(bitwise_equal(got, want))
          << rows << "x" << cols << " pad " << pad;
      // The row-ordered gather, here reading the rows backwards.
      std::vector<std::uint32_t> order(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        order[r] = static_cast<std::uint32_t>(rows - 1 - r);
      }
      std::vector<cplx> want_rows(cols * ds, cplx{-1.0, -1.0});
      auto got_rows = want_rows;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          want_rows[c * ds + r] = src[order[r] * ss + c];
        }
      }
      transpose_tiled_rows(src.data(), ss, order.data(), got_rows.data(), ds,
                           rows, cols);
      EXPECT_TRUE(bitwise_equal(got_rows, want_rows))
          << rows << "x" << cols << " pad " << pad << " (row order)";
    }
  }
}

TEST(TileTranspose, SquareInplaceMatchesNaiveSwap) {
  for (const std::size_t n : {1, 15, 16, 33, 512}) {
    for (const std::size_t lda : {n, n + 5}) {
      auto want = iota_matrix(n * lda);
      auto got = want;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          std::swap(want[i * lda + j], want[j * lda + i]);
        }
      }
      transpose_square_inplace(got.data(), n, lda);
      EXPECT_TRUE(bitwise_equal(got, want)) << "n " << n << " lda " << lda;
    }
  }
}

TEST(Timers, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.elapsed(), 0.0);
}

TEST(Timers, ThreadCpuTimerMeasuresWork) {
  ThreadCpuTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  const double cpu = t.elapsed();
  EXPECT_GT(cpu, 0.0);
  EXPECT_LT(cpu, 10.0);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("FTFFT_TEST_SIZE", "123", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 123u);
  ::setenv("FTFFT_TEST_SIZE", "garbage", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::unsetenv("FTFFT_TEST_SIZE");
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::setenv("FTFFT_TEST_LONG", "-3", 1);
  EXPECT_EQ(env_long("FTFFT_TEST_LONG", 0), -3);
  ::unsetenv("FTFFT_TEST_LONG");
}

TEST(Env, RejectsTrailingGarbage) {
  // "4x" used to strtoul-truncate to 4; a typo'd knob must fall back (and
  // warn once), never half-apply.
  ::setenv("FTFFT_TEST_SIZE", "4x", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::setenv("FTFFT_TEST_SIZE", "123abc", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::setenv("FTFFT_TEST_SIZE", "1 2", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::unsetenv("FTFFT_TEST_SIZE");
  ::setenv("FTFFT_TEST_LONG", "-3x", 1);
  EXPECT_EQ(env_long("FTFFT_TEST_LONG", 5), 5);
  ::unsetenv("FTFFT_TEST_LONG");
}

TEST(Env, RejectsOutOfRangeAndNegative) {
  // Way past both long and size_t on any supported platform.
  ::setenv("FTFFT_TEST_SIZE", "99999999999999999999999999", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  // A negative count is invalid for the unsigned reader (strtoul would
  // silently wrap it to a huge value).
  ::setenv("FTFFT_TEST_SIZE", "-4", 1);
  EXPECT_EQ(env_size("FTFFT_TEST_SIZE", 7), 7u);
  ::unsetenv("FTFFT_TEST_SIZE");
  ::setenv("FTFFT_TEST_LONG", "99999999999999999999999999", 1);
  EXPECT_EQ(env_long("FTFFT_TEST_LONG", -2), -2);
  ::setenv("FTFFT_TEST_LONG", "-99999999999999999999999999", 1);
  EXPECT_EQ(env_long("FTFFT_TEST_LONG", -2), -2);
  ::unsetenv("FTFFT_TEST_LONG");
}

TEST(Env, FlagParsesSpellingsAndFallsBack) {
  for (const char* on : {"1", "on", "true", "yes"}) {
    ::setenv("FTFFT_TEST_FLAG", on, 1);
    EXPECT_TRUE(env_flag("FTFFT_TEST_FLAG", false)) << on;
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    ::setenv("FTFFT_TEST_FLAG", off, 1);
    EXPECT_FALSE(env_flag("FTFFT_TEST_FLAG", true)) << off;
  }
  ::setenv("FTFFT_TEST_FLAG", "maybe", 1);
  EXPECT_TRUE(env_flag("FTFFT_TEST_FLAG", true));
  EXPECT_FALSE(env_flag("FTFFT_TEST_FLAG", false));
  ::unsetenv("FTFFT_TEST_FLAG");
  EXPECT_TRUE(env_flag("FTFFT_TEST_FLAG", true));
  EXPECT_FALSE(env_flag("FTFFT_TEST_FLAG", false));
}

TEST(Env, ScaledSizeShifts) {
  ::setenv("FTFFT_BENCH_SCALE", "2", 1);
  EXPECT_EQ(scaled_size(1024), 4096u);
  ::setenv("FTFFT_BENCH_SCALE", "-2", 1);
  EXPECT_EQ(scaled_size(1024), 256u);
  EXPECT_EQ(scaled_size(16, 16), 16u);  // clamped at min
  ::unsetenv("FTFFT_BENCH_SCALE");
  EXPECT_EQ(scaled_size(1024), 1024u);
}

TEST(Env, ScaledRunsPercentage) {
  ::setenv("FTFFT_BENCH_RUNS", "50", 1);
  EXPECT_EQ(scaled_runs(10), 5u);
  EXPECT_EQ(scaled_runs(1), 1u);  // never drops to zero
  ::setenv("FTFFT_BENCH_RUNS", "300", 1);
  EXPECT_EQ(scaled_runs(10), 30u);
  ::unsetenv("FTFFT_BENCH_RUNS");
}

TEST(ErrorHelpers, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(detail::require(true, "fine"));
  try {
    detail::require(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

TEST(ErrorHelpers, UncorrectableErrorIsRuntimeError) {
  const UncorrectableError err("boom");
  const std::runtime_error& base = err;
  EXPECT_STREQ(base.what(), "boom");
}

}  // namespace
}  // namespace ftfft
