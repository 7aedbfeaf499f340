// AdaptationPolicy: hysteresis band, bounded steps, floor/ceiling clamps,
// per-direction cooldowns, and refusal backoff. The stability property
// under test: a settled reservation on a steady demand signal never
// leaves kHold.
#include "adapt/policy.hpp"

#include <gtest/gtest.h>

namespace mgq::adapt {
namespace {

DemandSample demand(double bps) {
  DemandSample s;
  s.offered_bps = bps;
  s.achieved_bps = bps;
  return s;
}

AdaptationPolicy::Config config() {
  AdaptationPolicy::Config c;
  c.headroom = 1.25;
  return c;
}

TEST(AdaptationPolicyTest, HoldsInsideTheHysteresisBand) {
  AdaptationPolicy policy(config());
  // Target = 10 x 1.25 = 12.5 Mb/s against a 12 Mb/s reservation:
  // 12.5 < 12 x 1.05 and 12.5 > 12 x 0.70, so the policy holds.
  const auto d = policy.decide(demand(10e6), 12e6, 10.0);
  EXPECT_EQ(d.action, AdaptAction::kHold);
  EXPECT_STREQ(d.reason, "within band");
}

TEST(AdaptationPolicyTest, SteadyDemandNeverFlaps) {
  AdaptationPolicy policy(config());
  // Walk a grow to convergence, then keep deciding on the same demand:
  // once inside the band, every subsequent decision must hold.
  double current = 4e6;
  double now = 0.0;
  int actions = 0;
  for (int i = 0; i < 50; ++i) {
    now += 0.5;
    const auto d = policy.decide(demand(20e6), current, now);
    if (d.action != AdaptAction::kHold) {
      policy.notifyApplied(d.action, now);
      current = d.target_bps;
      ++actions;
    }
  }
  EXPECT_NEAR(current, 25e6, 1.0);  // demand x headroom
  // log1.6(25/4) rounds up to 4 grows; anything more is flapping.
  EXPECT_EQ(actions, 4);
  const auto settled = policy.decide(demand(20e6), current, now + 10.0);
  EXPECT_EQ(settled.action, AdaptAction::kHold);
}

TEST(AdaptationPolicyTest, GrowIsBoundedByTheMultiplier) {
  AdaptationPolicy policy(config());
  const auto d = policy.decide(demand(100e6), 4e6, 10.0);
  ASSERT_EQ(d.action, AdaptAction::kGrow);
  EXPECT_DOUBLE_EQ(d.target_bps, 4e6 * 1.6);
}

TEST(AdaptationPolicyTest, ShrinkIsBoundedByTheStep) {
  AdaptationPolicy policy(config());
  const auto d = policy.decide(demand(0.0), 40e6, 10.0);
  ASSERT_EQ(d.action, AdaptAction::kShrink);
  EXPECT_DOUBLE_EQ(d.target_bps, 20e6);  // one 50% step, not straight to 0
}

TEST(AdaptationPolicyTest, FloorAndCeilingClampAndAreReported) {
  auto c = config();
  c.floor_bps = 2e6;
  c.ceiling_bps = 30e6;
  AdaptationPolicy policy(c);
  // Demand of zero: target clamps up to the floor; one shrink step from
  // 3 Mb/s would hit 1.5 Mb/s but the floor holds it at 2 Mb/s.
  auto d = policy.decide(demand(0.0), 3e6, 10.0);
  ASSERT_EQ(d.action, AdaptAction::kShrink);
  EXPECT_DOUBLE_EQ(d.target_bps, 2e6);
  EXPECT_TRUE(d.clamped);
  // Huge demand: target clamps down to the ceiling.
  policy.notifyApplied(AdaptAction::kShrink, 10.0);
  d = policy.decide(demand(100e6), 28e6, 20.0);
  ASSERT_EQ(d.action, AdaptAction::kGrow);
  EXPECT_DOUBLE_EQ(d.target_bps, 30e6);
  EXPECT_TRUE(d.clamped);
}

TEST(AdaptationPolicyTest, CooldownsGateRepeatActions) {
  AdaptationPolicy policy(config());
  auto d = policy.decide(demand(20e6), 4e6, 10.0);
  ASSERT_EQ(d.action, AdaptAction::kGrow);
  policy.notifyApplied(AdaptAction::kGrow, 10.0);
  // 0.5 s later: still cooling down.
  d = policy.decide(demand(20e6), 6.4e6, 10.5);
  EXPECT_EQ(d.action, AdaptAction::kHold);
  EXPECT_STREQ(d.reason, "grow-cooldown");
  // Past the 1 s cooldown: allowed again.
  d = policy.decide(demand(20e6), 6.4e6, 11.1);
  EXPECT_EQ(d.action, AdaptAction::kGrow);
}

TEST(AdaptationPolicyTest, RefusalsDoubleTheGrowCooldownUpTo8x) {
  AdaptationPolicy policy(config());
  policy.notifyRefused(10.0);
  EXPECT_EQ(policy.consecutiveRefusals(), 1);
  // One refusal: 2 s cooldown. 1.5 s later is still blocked.
  auto d = policy.decide(demand(20e6), 4e6, 11.5);
  EXPECT_STREQ(d.reason, "grow-cooldown");
  d = policy.decide(demand(20e6), 4e6, 12.1);
  EXPECT_EQ(d.action, AdaptAction::kGrow);

  // Pile up refusals: the cooldown saturates at 8 x 1 s.
  policy.notifyRefused(20.0);
  policy.notifyRefused(20.0);
  policy.notifyRefused(20.0);
  policy.notifyRefused(20.0);
  d = policy.decide(demand(20e6), 4e6, 27.9);
  EXPECT_STREQ(d.reason, "grow-cooldown");
  d = policy.decide(demand(20e6), 4e6, 28.1);
  EXPECT_EQ(d.action, AdaptAction::kGrow);

  // A successful apply clears the backoff entirely.
  policy.notifyApplied(AdaptAction::kGrow, 28.1);
  EXPECT_EQ(policy.consecutiveRefusals(), 0);
  d = policy.decide(demand(20e6), 6.4e6, 29.2);
  EXPECT_EQ(d.action, AdaptAction::kGrow);
}

TEST(AdaptationPolicyTest, ZeroCurrentAmountHolds) {
  AdaptationPolicy policy(config());
  const auto d = policy.decide(demand(20e6), 0.0, 10.0);
  EXPECT_EQ(d.action, AdaptAction::kHold);
}

}  // namespace
}  // namespace mgq::adapt
