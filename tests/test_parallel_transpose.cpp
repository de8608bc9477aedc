#include "parallel/transpose.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "parallel/comm.hpp"

namespace ftfft {
namespace {

using parallel::RankCtx;
using parallel::SimComm;
using parallel::TransposeOptions;
using parallel::TransposeStats;

// Builds rank r's local array: block q element u encodes (r, q, u).
std::vector<cplx> make_local(std::size_t r, std::size_t p, std::size_t bsz) {
  std::vector<cplx> local(p * bsz);
  for (std::size_t q = 0; q < p; ++q) {
    for (std::size_t u = 0; u < bsz; ++u) {
      local[q * bsz + u] = {static_cast<double>(r * 1000 + q),
                            static_cast<double>(u)};
    }
  }
  return local;
}

void check_transposed(const std::vector<cplx>& local, std::size_t r,
                      std::size_t p, std::size_t bsz) {
  for (std::size_t q = 0; q < p; ++q) {
    for (std::size_t u = 0; u < bsz; ++u) {
      // Block q must now hold what rank q had in block r.
      EXPECT_EQ(local[q * bsz + u],
                (cplx{static_cast<double>(q * 1000 + r),
                      static_cast<double>(u)}))
          << "r=" << r << " q=" << q << " u=" << u;
    }
  }
}

class TransposeConfig
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, bool>> {};

TEST_P(TransposeConfig, RoundTripsBlockOwnership) {
  const auto [p, checksums, overlap] = GetParam();
  const std::size_t bsz = 16;
  SimComm comm(p);
  comm.run([&](RankCtx& ctx) {
    auto local = make_local(ctx.rank(), p, bsz);
    TransposeOptions opts;
    opts.checksums = checksums;
    opts.overlap = overlap;
    opts.eta = 1e-9;
    TransposeStats stats;
    parallel::block_transpose(ctx, local.data(), bsz, opts, stats, 10);
    check_transposed(local, ctx.rank(), p, bsz);
    if (checksums) {
      EXPECT_EQ(stats.comm_errors_detected, 0u);
      // p-1 payloads of bsz+2 complex values each.
      EXPECT_EQ(stats.bytes_sent, (p - 1) * (bsz + 2) * sizeof(cplx));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeConfig,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 5, 8, 16),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& pi) {
      return "p" + std::to_string(std::get<0>(pi.param)) +
             (std::get<1>(pi.param) ? "_ck" : "_raw") +
             (std::get<2>(pi.param) ? "_overlap" : "_block");
    });

TEST(Transpose, InFlightCorruptionRepaired) {
  const std::size_t p = 4, bsz = 32;
  SimComm comm(p);
  // Corrupt a block arriving at rank 2 from rank 0.
  comm.injector(2).schedule(fault::FaultSpec::computational(
      fault::Phase::kCommBlock, 0, 11, {50.0, -20.0}));
  std::atomic<std::size_t> corrected{0};
  comm.run([&](RankCtx& ctx) {
    auto local = make_local(ctx.rank(), p, bsz);
    TransposeOptions opts;
    opts.checksums = true;
    opts.eta = 1e-9;
    TransposeStats stats;
    parallel::block_transpose(ctx, local.data(), bsz, opts, stats, 10);
    check_transposed(local, ctx.rank(), p, bsz);
    corrected += stats.comm_errors_corrected;
  });
  EXPECT_EQ(corrected.load(), 1u);
}

TEST(Transpose, HookSeesEveryBlockOnce) {
  const std::size_t p = 4, bsz = 8;
  SimComm comm(p);
  comm.run([&](RankCtx& ctx) {
    auto local = make_local(ctx.rank(), p, bsz);
    std::vector<int> seen(p, 0);
    TransposeOptions opts;
    opts.checksums = false;
    opts.on_block = [&](std::size_t src, cplx*, std::size_t len) {
      EXPECT_EQ(len, bsz);
      ++seen[src];
    };
    TransposeStats stats;
    parallel::block_transpose(ctx, local.data(), bsz, opts, stats, 10);
    for (std::size_t q = 0; q < p; ++q) EXPECT_EQ(seen[q], 1) << q;
  });
}

TEST(Transpose, OverlapReducesSimulatedTime) {
  // Same data movement; the overlapped schedule must never be slower in
  // simulated time when there is compute to hide. The schedule moves the
  // clock only through the communication it charges: blocking charges each
  // transfer its full alpha-beta cost, the overlapped schedule only the
  // excess over the measured pack/process compute around it. So each run
  // is checked against the alpha-beta cost of its own messages; comparing
  // two runs' makespans would also compare their CPU-time noise.
  const std::size_t p = 4, bsz = 4096;
  for (bool overlap : {false, true}) {
    SimComm comm(p);
    std::vector<TransposeStats> stats(p);
    comm.run([&](RankCtx& ctx) {
      auto local = make_local(ctx.rank(), p, bsz);
      TransposeOptions opts;
      opts.checksums = true;
      opts.overlap = overlap;
      opts.eta = 1e-6;
      parallel::block_transpose(ctx, local.data(), bsz, opts,
                                stats[ctx.rank()], 10);
      ctx.barrier();
    });
    for (std::size_t r = 0; r < p; ++r) {
      const auto& rep = comm.reports()[r];
      const double full =
          static_cast<double>(stats[r].messages_received) *
              comm.net().latency_s +
          static_cast<double>(stats[r].bytes_sent) / comm.net().bytes_per_s;
      ASSERT_EQ(stats[r].messages_received, p - 1);
      EXPECT_GT(rep.compute_seconds, 0.0) << "r=" << r;
      if (overlap) {
        EXPECT_LT(rep.comm_seconds, full) << "r=" << r;
      } else {
        EXPECT_NEAR(rep.comm_seconds, full, 1e-9 * full) << "r=" << r;
      }
    }
  }
}

TEST(Transpose, SingleRankDegenerate) {
  SimComm comm(1);
  comm.run([&](RankCtx& ctx) {
    auto local = make_local(0, 1, 8);
    const auto before = local;
    TransposeOptions opts;
    TransposeStats stats;
    parallel::block_transpose(ctx, local.data(), 8, opts, stats, 10);
    EXPECT_EQ(local, before);
    EXPECT_EQ(stats.bytes_sent, 0u);
  });
}

}  // namespace
}  // namespace ftfft
