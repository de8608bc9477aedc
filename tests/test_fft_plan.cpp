#include "fft/plan.hpp"

#include <gtest/gtest.h>

#include "common/math_util.hpp"

namespace ftfft {
namespace {

using fft::make_plan;
using fft::PlanNode;

TEST(FftPlan, SmallSizesAreCodelets) {
  for (std::size_t n : {1, 2, 3, 4, 5, 8, 16}) {
    const auto plan = make_plan(n);
    EXPECT_EQ(plan->kind, PlanNode::Kind::kCodelet) << n;
    EXPECT_EQ(plan->n, n);
    EXPECT_EQ(plan->scratch_need, 0u);
  }
}

TEST(FftPlan, PowerOfTwoUsesCooleyTukeyChain) {
  const auto plan = make_plan(1 << 12);
  const PlanNode* cur = plan.get();
  std::size_t product = 1;
  while (cur->kind == PlanNode::Kind::kCooleyTukey) {
    EXPECT_EQ(cur->n % cur->radix, 0u);
    EXPECT_EQ(cur->twiddles.size(), (cur->radix - 1) * (cur->n / cur->radix));
    product *= cur->radix;
    cur = cur->sub.get();
  }
  EXPECT_EQ(cur->kind, PlanNode::Kind::kCodelet);
  EXPECT_EQ(product * cur->n, std::size_t{1} << 12);
  EXPECT_EQ(plan->scratch_need, 0u);
}

TEST(FftPlan, PrefersLargeRadix) {
  const auto plan = make_plan(1 << 16);
  ASSERT_EQ(plan->kind, PlanNode::Kind::kCooleyTukey);
  EXPECT_EQ(plan->radix, 16u);
}

TEST(FftPlan, MixedRadixFactorsCompletely) {
  for (std::size_t n : {12, 60, 100, 120, 360, 1000, 1440}) {
    const auto plan = make_plan(n);
    // Walk the chain and make sure no Bluestein node appears: all these
    // sizes factor over {2,3,5}.
    const PlanNode* cur = plan.get();
    while (cur->kind == PlanNode::Kind::kCooleyTukey) cur = cur->sub.get();
    EXPECT_EQ(cur->kind, PlanNode::Kind::kCodelet) << n;
    EXPECT_EQ(plan->scratch_need, 0u) << n;
  }
}

TEST(FftPlan, LargePrimeUsesBluestein) {
  const auto plan = make_plan(97);
  ASSERT_EQ(plan->kind, PlanNode::Kind::kBluestein);
  EXPECT_GE(plan->conv_n, 2 * 97 - 1);
  EXPECT_TRUE(is_pow2(plan->conv_n));
  EXPECT_EQ(plan->chirp.size(), 97u);
  EXPECT_EQ(plan->chirp_fft.size(), plan->conv_n);
  // The convolution runs in place on the power-of-two engine.
  ASSERT_NE(plan->conv_plan, nullptr);
  EXPECT_EQ(plan->conv_plan->size(), plan->conv_n);
  EXPECT_EQ(plan->scratch_need, plan->conv_n);
}

TEST(FftPlan, SmallPrimeStaysGenericCodelet) {
  for (std::size_t n : {7, 11, 13, 17, 19, 23, 29, 31}) {
    const auto plan = make_plan(n);
    EXPECT_EQ(plan->kind, PlanNode::Kind::kCodelet) << n;
  }
}

TEST(FftPlan, CompositeWithLargePrimeFactor) {
  // 2 * 37: split off the 2, Bluestein on the 37.
  const auto plan = make_plan(74);
  ASSERT_EQ(plan->kind, PlanNode::Kind::kCooleyTukey);
  EXPECT_EQ(plan->radix, 2u);
  ASSERT_NE(plan->sub, nullptr);
  EXPECT_EQ(plan->sub->kind, PlanNode::Kind::kBluestein);
  EXPECT_GT(plan->scratch_need, 0u);
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const auto a = make_plan(4096);
  const auto b = make_plan(4096);
  EXPECT_EQ(a.get(), b.get());
}

TEST(FftPlan, DescribeMentionsStructure) {
  const std::string desc = fft::describe_plan(*make_plan(1 << 10));
  EXPECT_NE(desc.find("ct(n=1024"), std::string::npos) << desc;
  EXPECT_NE(desc.find("codelet("), std::string::npos) << desc;
  const std::string bdesc = fft::describe_plan(*make_plan(101));
  EXPECT_NE(bdesc.find("bluestein"), std::string::npos) << bdesc;
}

TEST(FftPlan, RejectsZero) {
  EXPECT_THROW(make_plan(0), std::invalid_argument);
}

}  // namespace
}  // namespace ftfft
