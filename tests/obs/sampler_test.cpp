#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace mgq::obs {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(SamplerTest, TimelineProbeTicksAtInterval) {
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(1.0));
  double value = 10.0;
  sampler.addProbe("series", [&value] { return value; });
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(3.5));
  const auto& points = metrics.timeline("series").points();
  ASSERT_EQ(points.size(), 3u);  // t = 1, 2, 3
  EXPECT_DOUBLE_EQ(points[0].t_seconds, 1.0);
  EXPECT_DOUBLE_EQ(points[2].t_seconds, 3.0);
  EXPECT_DOUBLE_EQ(points[0].value, 10.0);
  EXPECT_EQ(sampler.ticks(), 3u);
}

TEST(SamplerTest, NanProbeResultSkipped) {
  // The standard "socket not connected yet" case: the series starts when
  // the subject exists, with no bogus leading zeros.
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(1.0));
  double value = std::numeric_limits<double>::quiet_NaN();
  sampler.addProbe("series", [&value] { return value; });
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(2.5));
  sim.scheduleAt(TimePoint::fromSeconds(2.6), [&value] { value = 7.0; });
  sim.runUntil(TimePoint::fromSeconds(4.5));
  const auto& points = metrics.timeline("series").points();
  ASSERT_EQ(points.size(), 2u);  // t = 3, 4 only
  EXPECT_DOUBLE_EQ(points[0].t_seconds, 3.0);
  EXPECT_DOUBLE_EQ(points[0].value, 7.0);
}

TEST(SamplerTest, HistogramProbeWeightsByInterval) {
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(2.0));
  sampler.addHistogramProbe("occupancy", [] { return 50.0; });
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(6.5));  // ticks at 2, 4, 6
  const auto s = metrics.histogram("occupancy").summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total_weight, 6.0);  // 3 ticks x 2 s
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
}

TEST(SamplerTest, RateProbeDifferentiatesByteCounter) {
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(1.0));
  double bytes = 0.0;
  sampler.addRateProbe("kbps", [&bytes] { return bytes; });
  // 1000 bytes per second -> 8 kbit/s.
  std::function<void()> feed = [&] {
    bytes += 500.0;
    sim.schedule(Duration::millis(500), feed);
  };
  sim.schedule(Duration::millis(500), feed);
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(4.5));
  const auto& points = metrics.timeline("kbps").points();
  // First tick seeds the baseline; subsequent ticks report the rate.
  ASSERT_GE(points.size(), 2u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_NEAR(points[i].value, 8.0, 1e-9);
  }
}

TEST(SamplerTest, StopCancelsAndStartResumes) {
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(1.0));
  sampler.addProbe("series", [] { return 1.0; });
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(2.5));
  sampler.stop();
  sim.runUntil(TimePoint::fromSeconds(5.5));
  EXPECT_EQ(metrics.timeline("series").points().size(), 2u);
  sampler.start();
  sim.runUntil(TimePoint::fromSeconds(7.5));
  // Resumed: ticks at 6.5 and 7.5 relative-from-start(5.5).
  EXPECT_EQ(metrics.timeline("series").points().size(), 4u);
}

TEST(SamplerTest, StartIsIdempotent) {
  sim::Simulator sim;
  MetricsRegistry metrics;
  Sampler sampler(sim, metrics, Duration::seconds(1.0));
  sampler.addProbe("series", [] { return 1.0; });
  sampler.start();
  sampler.start();  // must not double-arm
  sim.runUntil(TimePoint::fromSeconds(3.5));
  EXPECT_EQ(metrics.timeline("series").points().size(), 3u);
}

TEST(SamplerTest, DestructionCancelsPendingTick) {
  // A sampler destroyed before its simulator must cancel its pending
  // event; running the sim afterwards must not touch freed memory.
  sim::Simulator sim;
  MetricsRegistry metrics;
  {
    Sampler sampler(sim, metrics, Duration::seconds(1.0));
    sampler.addProbe("series", [] { return 1.0; });
    sampler.start();
  }
  sim.runUntil(TimePoint::fromSeconds(3.0));
  EXPECT_TRUE(metrics.timeline("series").points().empty());
}

}  // namespace
}  // namespace mgq::obs
