#include "net/token_bucket.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mgq::net {
namespace {

using sim::Duration;

TEST(TokenBucketTest, StartsFull) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);  // 1000 B/s refill
  EXPECT_DOUBLE_EQ(tb.tokens(), 1000.0);
  EXPECT_TRUE(tb.tryConsume(1000));
  EXPECT_FALSE(tb.tryConsume(1));
}

TEST(TokenBucketTest, RefillsAtRate) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);  // 1000 bytes/sec
  ASSERT_TRUE(tb.tryConsume(1000));
  s.runFor(Duration::millis(500));
  EXPECT_NEAR(tb.tokens(), 500.0, 1e-6);
  EXPECT_TRUE(tb.tryConsume(500));
  EXPECT_FALSE(tb.tryConsume(1));
}

TEST(TokenBucketTest, DoesNotOverfill) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  s.runFor(Duration::seconds(100));
  EXPECT_DOUBLE_EQ(tb.tokens(), 1000.0);
}

TEST(TokenBucketTest, PartialConsumeLeavesRemainder) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  EXPECT_TRUE(tb.tryConsume(400));
  EXPECT_NEAR(tb.tokens(), 600.0, 1e-9);
}

TEST(TokenBucketTest, FailedConsumeConsumesNothing) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  ASSERT_TRUE(tb.tryConsume(900));
  EXPECT_FALSE(tb.tryConsume(200));
  EXPECT_NEAR(tb.tokens(), 100.0, 1e-9);
}

TEST(TokenBucketTest, TimeUntilConformant) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);  // 1000 B/s
  ASSERT_TRUE(tb.tryConsume(1000));
  // Need 250 bytes -> 0.25 s at 1000 B/s.
  EXPECT_NEAR(tb.timeUntilConformant(250).toSeconds(), 0.25, 1e-9);
  EXPECT_EQ(tb.timeUntilConformant(0), Duration::zero());
  s.runFor(Duration::millis(250));
  EXPECT_EQ(tb.timeUntilConformant(250), Duration::zero());
}

TEST(TokenBucketTest, ForceConsumeGoesNegative) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  tb.forceConsume(1500);
  EXPECT_NEAR(tb.tokens(), -500.0, 1e-9);
  EXPECT_FALSE(tb.tryConsume(1));
  // Refill proceeds from the negative level.
  s.runFor(Duration::millis(600));
  EXPECT_NEAR(tb.tokens(), 100.0, 1e-6);
}

TEST(TokenBucketTest, ForceConsumeDebtClampsAtDepth) {
  // Regression: forceConsume used to accumulate unbounded debt, so one
  // giant burst could starve the flow for arbitrarily long. Debt is now
  // floored at -depth (here -1000), i.e. one bucket's worth of refill.
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);  // 1000 B/s, depth 1000
  tb.forceConsume(1'000'000);
  EXPECT_DOUBLE_EQ(tb.tokens(), -1000.0);
  EXPECT_EQ(tb.stats().forced, 1u);
  EXPECT_EQ(tb.stats().force_clamped, 1u);
  // Full recovery takes exactly 2 s (debt + depth at 1000 B/s), not ~17 min.
  s.runFor(Duration::seconds(1));
  EXPECT_NEAR(tb.tokens(), 0.0, 1e-6);
  s.runFor(Duration::seconds(1));
  EXPECT_NEAR(tb.tokens(), 1000.0, 1e-6);
}

TEST(TokenBucketTest, ForceConsumeWithinDepthDoesNotClamp) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  tb.forceConsume(1500);  // lands at -500, above the -1000 floor
  EXPECT_NEAR(tb.tokens(), -500.0, 1e-9);
  EXPECT_EQ(tb.stats().forced, 1u);
  EXPECT_EQ(tb.stats().force_clamped, 0u);
}

TEST(TokenBucketTest, ForceConsumeClampsOnlyPastTheDepth) {
  // The clamp boundary: a debt of exactly one depth is the floor itself
  // and is kept as is; one byte more is clamped back to it.
  sim::Simulator s;
  TokenBucket exact(s, 8000.0, 1000);
  exact.forceConsume(2000);  // full bucket - 2000 = -depth
  EXPECT_DOUBLE_EQ(exact.tokens(), -1000.0);
  EXPECT_EQ(exact.stats().force_clamped, 0u);

  TokenBucket past(s, 8000.0, 1000);
  past.forceConsume(2001);  // -depth - 1
  EXPECT_DOUBLE_EQ(past.tokens(), -1000.0);
  EXPECT_EQ(past.stats().force_clamped, 1u);
}

TEST(TokenBucketTest, StatsCountConformedAndPoliced) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  EXPECT_TRUE(tb.tryConsume(600));   // conforms
  EXPECT_TRUE(tb.tryConsume(400));   // conforms
  EXPECT_FALSE(tb.tryConsume(1));    // policed
  EXPECT_FALSE(tb.tryConsume(500));  // policed
  EXPECT_EQ(tb.stats().conformed, 2u);
  EXPECT_EQ(tb.stats().policed, 2u);
}

TEST(TokenBucketTest, ConfigureClampsTokens) {
  sim::Simulator s;
  TokenBucket tb(s, 8000.0, 1000);
  tb.configure(16000.0, 400);
  EXPECT_DOUBLE_EQ(tb.tokens(), 400.0);
  EXPECT_DOUBLE_EQ(tb.rateBps(), 16000.0);
  EXPECT_EQ(tb.depthBytes(), 400);
}

TEST(TokenBucketTest, DepthRuleNormalAndLarge) {
  // Paper Table 1: depth = bandwidth / 40 (normal) or / 4 (large).
  EXPECT_EQ(TokenBucket::depthForRate(400'000.0, TokenBucket::kNormalDivisor),
            10'000);
  EXPECT_EQ(TokenBucket::depthForRate(400'000.0, TokenBucket::kLargeDivisor),
            100'000);
  // Floor of one MTU for tiny reservations.
  EXPECT_EQ(TokenBucket::depthForRate(8'000.0, 40.0), 1600);
}

TEST(TokenBucketTest, LongRunConformanceMatchesRate) {
  // Property: over a long window, a saturating sender passes ~rate bytes.
  sim::Simulator s;
  const double rate_bps = 1e6;
  TokenBucket tb(s, rate_bps, 5000);
  std::int64_t passed = 0;
  for (int step = 0; step < 10'000; ++step) {
    s.runFor(Duration::millis(1));
    while (tb.tryConsume(500)) passed += 500;
  }
  const double expected = rate_bps / 8.0 * 10.0 + 5000;  // 10 s + initial
  EXPECT_NEAR(static_cast<double>(passed), expected, expected * 0.01);
}

}  // namespace
}  // namespace mgq::net
