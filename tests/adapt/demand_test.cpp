// DemandEstimator: counter deltas -> EWMA rate signals with a priming
// sample, max(offered, achieved) demand, and a policer-stats baseline
// reset when a modify swaps in a fresh bucket.
#include "adapt/demand.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mgq::adapt {
namespace {

TEST(DemandEstimatorTest, FirstSamplePrimesBaselinesInsteadOfMeasuring) {
  std::int64_t offered = 1'000'000;  // pre-existing history
  DemandEstimator est;
  est.setInputs({[&] { return offered; }, {}, {}});
  const auto& first = est.sample(0.5);
  // The counter's whole history must not read as one interval's rate.
  EXPECT_DOUBLE_EQ(first.offered_bps, 0.0);
  // The next interval measures a real delta: 62.5 KB over 0.5 s = 1 Mb/s,
  // folded in at kAlpha.
  offered += 62'500;
  const auto& second = est.sample(0.5);
  EXPECT_DOUBLE_EQ(second.offered_bps, DemandEstimator::kAlpha * 1e6);
}

TEST(DemandEstimatorTest, EwmaConvergesOnSteadyRate) {
  std::int64_t offered = 0;
  DemandEstimator est;
  est.setInputs({[&] { return offered; }, {}, {}});
  est.sample(0.5);  // prime
  for (int i = 0; i < 20; ++i) {
    offered += 625'000;  // 10 Mb/s over each 0.5 s interval
    est.sample(0.5);
  }
  EXPECT_NEAR(est.current().offered_bps, 10e6, 10e6 * 0.01);
}

TEST(DemandEstimatorTest, DemandIsMaxOfOfferedAndAchieved) {
  DemandSample s;
  s.offered_bps = 20e6;
  s.achieved_bps = 5e6;
  EXPECT_DOUBLE_EQ(s.demandBps(), 20e6);
  s.achieved_bps = 25e6;
  EXPECT_DOUBLE_EQ(s.demandBps(), 25e6);
}

TEST(DemandEstimatorTest, NonPositiveIntervalIsIgnored) {
  std::int64_t offered = 0;
  DemandEstimator est;
  est.setInputs({[&] { return offered; }, {}, {}});
  est.sample(0.5);
  offered += 1'000'000;
  const auto before = est.current().offered_bps;
  est.sample(0.0);
  EXPECT_DOUBLE_EQ(est.current().offered_bps, before);
}

TEST(DemandEstimatorTest, BucketSwapResetsPolicerBaseline) {
  sim::Simulator sim;
  net::TokenBucket first(sim, 1e6, 100'000);
  net::TokenBucket second(sim, 1e6, 100'000);
  const net::TokenBucket* active = &first;
  DemandEstimator est;
  est.setInputs({{}, {}, [&] { return active; }});
  est.sample(0.5);  // prime against `first`

  // Half the decisions in this interval are out of profile.
  ASSERT_TRUE(first.tryConsume(50'000));
  ASSERT_FALSE(first.tryConsume(200'000));
  est.sample(0.5);
  EXPECT_DOUBLE_EQ(est.current().policed_ratio, 0.5);

  // A modify re-enforces with a fresh bucket carrying pre-existing stats;
  // the estimator must re-baseline, not difference across lifetimes.
  ASSERT_TRUE(second.tryConsume(10'000));
  active = &second;
  est.sample(0.5);
  EXPECT_DOUBLE_EQ(est.current().policed_ratio, 0.0);

  // Subsequent intervals difference against the new bucket normally.
  ASSERT_FALSE(second.tryConsume(500'000));
  est.sample(0.5);
  EXPECT_DOUBLE_EQ(est.current().policed_ratio, 1.0);
}

}  // namespace
}  // namespace mgq::adapt
