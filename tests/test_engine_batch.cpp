// Tests for the batched multi-threaded protected-FFT engine and the fused
// radix-4 in-place kernel it rides on.
//
// The load-bearing property is determinism: a batch run on any number of
// threads must produce bit-identical results to a serial loop over the same
// lanes, because every lane executes the exact same protected code path on
// the same shared plan tables — threading only changes who runs it.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/ftfft.hpp"
#include "dft/reference_dft.hpp"
#include "fault/bitflip.hpp"
#include "fft/executor.hpp"
#include "fft/inplace_radix2.hpp"
#include "fft/plan.hpp"

namespace ftfft {
namespace {

std::vector<std::vector<cplx>> lane_inputs(std::size_t lanes, std::size_t n,
                                           std::uint64_t seed) {
  std::vector<std::vector<cplx>> ins;
  ins.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ins.push_back(random_vector(n, InputDistribution::kUniform, seed + l));
  }
  return ins;
}

std::vector<std::vector<cplx>> serial_reference(
    const std::vector<std::vector<cplx>>& inputs, std::size_t n,
    const abft::Options& opts) {
  std::vector<std::vector<cplx>> outs(inputs.size(), std::vector<cplx>(n));
  for (std::size_t l = 0; l < inputs.size(); ++l) {
    auto x = inputs[l];
    abft::Stats stats;
    abft::protected_transform(x.data(), outs[l].data(), n, opts, stats);
  }
  return outs;
}

bool bit_identical(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(BatchEngine, BitIdenticalToSerialLoopAcrossThreadCounts) {
  const std::size_t n = 512;
  const std::size_t lanes = 24;
  const auto inputs = lane_inputs(lanes, n, 100);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto reference = serial_reference(inputs, n, opts);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              static_cast<std::size_t>(hw)}) {
    engine::BatchEngine eng(threads);
    ASSERT_EQ(eng.num_threads(), threads);
    auto ins = inputs;
    std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
    std::vector<engine::Lane> batch(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      batch[l] = {ins[l].data(), outs[l].data(), nullptr};
    }
    engine::BatchOptions bopts;
    bopts.abft = opts;
    const auto report = eng.submit_batch(batch, n, bopts).get();
    EXPECT_EQ(report.lanes, lanes);
    EXPECT_EQ(report.failed_lanes, 0u);
    EXPECT_TRUE(report.all_ok());
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_TRUE(bit_identical(outs[l], reference[l]))
          << "threads=" << threads << " lane=" << l;
    }
  }
}

TEST(BatchEngine, SmallChunksExerciseTheSchedulerIdentically) {
  const std::size_t n = 256;
  const std::size_t lanes = 17;  // deliberately not a multiple of anything
  const auto inputs = lane_inputs(lanes, n, 250);
  const abft::Options opts = abft::Options::online_opt(false);
  const auto reference = serial_reference(inputs, n, opts);

  engine::BatchEngine eng(3);
  auto ins = inputs;
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch[l] = {ins[l].data(), outs[l].data(), nullptr};
  }
  engine::BatchOptions bopts;
  bopts.abft = opts;
  bopts.chunk = 1;  // maximum scheduler churn
  const auto report = eng.submit_batch(batch, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 0u);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_TRUE(bit_identical(outs[l], reference[l])) << "lane=" << l;
  }
}

TEST(BatchEngine, FaultInOneLaneIsCorrectedWithoutCrossLaneInterference) {
  const std::size_t n = 1024;
  const std::size_t lanes = 12;
  const auto inputs = lane_inputs(lanes, n, 333);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto clean = serial_reference(inputs, n, opts);

  // Strike three different lanes with output-phase bit flips.
  const std::size_t hit_lanes[] = {2, 7, 11};
  std::vector<fault::Injector> injectors(lanes);
  for (std::size_t hit : hit_lanes) {
    injectors[hit].schedule(fault::FaultSpec::bit_flip(
        fault::Phase::kFinalOutput, 0, 5 * hit + 1, 44, hit % 2 == 0));
  }

  engine::BatchEngine eng(4);
  auto ins = inputs;
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch[l] = {ins[l].data(), outs[l].data(), &injectors[l]};
  }
  engine::BatchOptions bopts;
  bopts.abft = opts;
  const auto report = eng.submit_batch(batch, n, bopts).get();

  EXPECT_EQ(report.failed_lanes, 0u);
  std::size_t corrected_total = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const bool was_hit =
        std::find(std::begin(hit_lanes), std::end(hit_lanes), l) !=
        std::end(hit_lanes);
    if (was_hit) {
      EXPECT_EQ(injectors[l].fired_count(), 1u) << "lane=" << l;
      EXPECT_GT(report.per_lane[l].mem_errors_corrected, 0u) << "lane=" << l;
      // Correction restores the exact pre-fault value (a bit flip is
      // reversed, not approximated away), so even hit lanes match the
      // clean run bit for bit.
      EXPECT_TRUE(bit_identical(outs[l], clean[l])) << "lane=" << l;
    } else {
      EXPECT_EQ(report.per_lane[l].mem_errors_detected, 0u) << "lane=" << l;
      EXPECT_TRUE(bit_identical(outs[l], clean[l])) << "lane=" << l;
    }
    corrected_total += report.per_lane[l].mem_errors_corrected;
  }
  EXPECT_EQ(report.totals.mem_errors_corrected, corrected_total);
  EXPECT_EQ(corrected_total, std::size(hit_lanes));
}

TEST(BatchEngine, InPlaceLanesMatchOutOfPlace) {
  const std::size_t n = 256;  // k*r*k-decomposable (16*1*16)
  const std::size_t lanes = 8;
  const auto inputs = lane_inputs(lanes, n, 444);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto reference = serial_reference(inputs, n, opts);

  engine::BatchEngine eng(2);
  auto data = inputs;
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch[l] = {data[l].data(), nullptr, nullptr};  // out = nullptr: in place
  }
  engine::BatchOptions bopts;
  bopts.abft = opts;
  const auto report = eng.submit_batch(batch, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 0u);
  const double tol = 1e-10 * static_cast<double>(n);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_LT(inf_diff(data[l].data(), reference[l].data(), n), tol)
        << "lane=" << l;
  }
}

TEST(BatchEngine, PreserveInputsLeavesCallerBuffersUntouched) {
  const std::size_t n = 128;
  const std::size_t lanes = 6;
  const auto inputs = lane_inputs(lanes, n, 555);

  engine::BatchEngine eng(2);
  auto ins = inputs;
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch[l] = {ins[l].data(), outs[l].data(), nullptr};
  }
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  bopts.preserve_inputs = true;
  const auto report = eng.submit_batch(batch, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 0u);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_TRUE(bit_identical(ins[l], inputs[l])) << "lane=" << l;
  }
}

TEST(BatchEngine, AliasedInOutLaneIsStagedCorrectly) {
  const std::size_t n = 512;
  auto input = random_vector(n, InputDistribution::kUniform, 666);
  const abft::Options opts = abft::Options::online_opt(true);
  auto reference = serial_reference({input}, n, opts);

  engine::BatchEngine eng(1);
  auto data = input;
  engine::Lane lane{data.data(), data.data(), nullptr};  // out aliases in
  engine::BatchOptions bopts;
  bopts.abft = opts;
  const auto report = eng.submit_batch({&lane, 1}, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 0u);
  EXPECT_TRUE(bit_identical(data, reference[0]));
}

TEST(BatchEngine, ProtectedFftMatchesBatchOfOne) {
  // The single-shot wrapper runs on the caller, outside the engine; a
  // batch of one must produce the same spectrum and the same statistics.
  const std::size_t n = 2048;
  auto input = random_vector(n, InputDistribution::kNormal, 888);
  const abft::Options opts = abft::Options::online_opt(true);
  const auto reference = serial_reference({input}, n, opts);

  auto x = input;
  std::vector<cplx> out(n);
  const engine::Lane lane{x.data(), out.data(), nullptr};
  const auto report = engine::BatchEngine::shared()
                          .submit_batch({&lane, 1}, n, {.abft = opts})
                          .get();
  ASSERT_TRUE(report.all_ok());
  EXPECT_TRUE(bit_identical(out, reference[0]));
  EXPECT_GT(report.per_lane[0].verifications, 0u);

  const auto spectrum = abft::protected_fft(input, opts);
  EXPECT_TRUE(bit_identical(spectrum, reference[0]));
}

TEST(BatchEngine, CoreTransformBatchUsesPlanConfig) {
  const std::size_t n = 128;
  const std::size_t lanes = 5;
  const auto inputs = lane_inputs(lanes, n, 999);
  PlanConfig config;
  const auto reference =
      serial_reference(inputs, n, make_abft_options(config));

  auto ins = inputs;
  std::vector<std::vector<cplx>> outs(lanes, std::vector<cplx>(n));
  std::vector<engine::Lane> batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch[l] = {ins[l].data(), outs[l].data(), nullptr};
  }
  // The core configuration reaches the engine through make_abft_options.
  const auto report = engine::BatchEngine::shared()
                          .submit_batch(batch, n, {make_abft_options(config)})
                          .get();
  EXPECT_EQ(report.failed_lanes, 0u);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_TRUE(bit_identical(outs[l], reference[l])) << "lane=" << l;
  }
}

TEST(BatchEngine, SingleShotPreservesErrorTaxonomy) {
  // Misuse must surface as std::invalid_argument through the batch-of-one
  // path, not be laundered into UncorrectableError (error.hpp promises
  // callers can tell "your input is wrong" from "machine is broken").
  auto input = random_vector(7, InputDistribution::kUniform, 11);  // prime
  EXPECT_THROW((void)abft::protected_fft(input, abft::Options::online_opt(true)),
               std::invalid_argument);
}

TEST(BatchEngine, RejectsBatchWideInjectorOnMultiThreadBatches) {
  const std::size_t n = 64;
  fault::Injector injector;
  auto a = random_vector(n, InputDistribution::kUniform, 1);
  auto b = random_vector(n, InputDistribution::kUniform, 2);
  std::vector<cplx> oa(n), ob(n);
  std::vector<engine::Lane> batch{{a.data(), oa.data(), nullptr},
                                  {b.data(), ob.data(), nullptr}};
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  bopts.abft.injector = &injector;  // shared mutable state: racy if allowed

  engine::BatchEngine multi(2);
  EXPECT_THROW((void)multi.submit_batch(batch, n, bopts),
               std::invalid_argument);
  // Single-threaded engines and single-lane batches stay legal.
  engine::BatchEngine solo(1);
  const auto report = solo.submit_batch(batch, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 0u);
}

TEST(BatchEngine, FailedLaneCarriesOriginalException) {
  // n = 10 splits as 5*2 for the out-of-place online scheme, but is
  // square-free, so the in-place k*r*k shape throws invalid_argument —
  // one lane fails while the other succeeds.
  const std::size_t n = 10;
  auto good = random_vector(n, InputDistribution::kUniform, 3);
  auto bad = random_vector(n, InputDistribution::kUniform, 4);
  std::vector<cplx> out_good(n);
  std::vector<engine::Lane> batch{{good.data(), out_good.data(), nullptr},
                                  {bad.data(), nullptr, nullptr}};  // in-place
  engine::BatchOptions bopts;
  bopts.abft = abft::Options::online_opt(true);
  engine::BatchEngine eng(1);
  const auto report = eng.submit_batch(batch, n, bopts).get();
  EXPECT_EQ(report.failed_lanes, 1u);
  EXPECT_TRUE(report.errors[0].empty());
  ASSERT_FALSE(report.errors[1].empty());
  ASSERT_TRUE(report.exceptions[1]);
  EXPECT_THROW(std::rethrow_exception(report.exceptions[1]),
               std::invalid_argument);
}

TEST(BatchEngine, EmptyBatchAndBadArgs) {
  engine::BatchEngine eng(2);
  const auto report =
      eng.submit_batch(std::span<const engine::Lane>{}, 8).get();
  EXPECT_EQ(report.lanes, 0u);
  EXPECT_TRUE(report.all_ok());

  engine::Lane null_lane{nullptr, nullptr, nullptr};
  EXPECT_THROW((void)eng.submit_batch({&null_lane, 1}, 8),
               std::invalid_argument);
  cplx one{1.0, 0.0};
  engine::Lane lane{&one, nullptr, nullptr};
  EXPECT_THROW((void)eng.submit_batch({&lane, 1}, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------- radix-4

class Radix4Sweep : public ::testing::TestWithParam<unsigned> {};

// The engine against transforms that do not run on it: the O(n^2) reference
// DFT up to 4096 points, and above that the recursive codelet tree
// (fft::execute_plan), which still plans every size with its own twiddles.
// (fft::Fft itself runs the engine from 512 points up, so it is no truth.)
TEST_P(Radix4Sweep, MatchesReferenceAndRadix2Schedule) {
  const std::size_t n = std::size_t{1} << GetParam();
  const auto plan = fft::InplaceRadix2Plan::get(n);
  auto input = random_vector(n, InputDistribution::kUniform, 42 + n);

  auto r4 = input;
  plan->forward(r4.data());

  std::vector<cplx> truth(n);
  if (n <= 4096) {
    dft::reference_dft(input.data(), truth.data(), n);
  } else {
    const auto tree = fft::make_plan(n);
    ASSERT_EQ(tree->scratch_need, 0u);
    fft::execute_plan(*tree, input.data(), 1, truth.data(), 1, nullptr);
  }
  const double scale = inf_norm(truth.data(), n);
  const double tol = 1e-11 * static_cast<double>(GetParam()) * scale + 1e-12;
  EXPECT_LT(inf_diff(r4.data(), truth.data(), n), tol) << "n=" << n;

  // Inverse round-trip through the radix-4 schedule.
  auto cycle = r4;
  plan->inverse(cycle.data());
  EXPECT_LT(inf_diff(cycle.data(), input.data(), n),
            1e-11 * inf_norm(input.data(), n) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwo, Radix4Sweep, ::testing::Range(2u, 21u),
    [](const ::testing::TestParamInfo<unsigned>& pi) {
      return "n2e" + std::to_string(pi.param);
    });

}  // namespace
}  // namespace ftfft
