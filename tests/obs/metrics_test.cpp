#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace mgq::obs {
namespace {

TEST(CounterTest, IncrementsWhenEnabled) {
  MetricsRegistry metrics;
  auto& c = metrics.counter("a");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry metrics;
  auto& g = metrics.gauge("util");
  g.set(0.5);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(RegistryTest, FindOrCreateReturnsSameInstrument) {
  MetricsRegistry metrics;
  auto& a = metrics.counter("x");
  a.inc();
  auto& b = metrics.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  // Distinct names are distinct instruments.
  EXPECT_NE(&metrics.counter("y"), &a);
  // The four instrument namespaces are independent.
  metrics.gauge("x");
  metrics.histogram("x");
  metrics.timeline("x");
  EXPECT_EQ(metrics.counters().size(), 2u);
  EXPECT_EQ(metrics.gauges().size(), 1u);
  EXPECT_EQ(metrics.histograms().size(), 1u);
  EXPECT_EQ(metrics.timelines().size(), 1u);
}

TEST(RegistryTest, InstrumentAddressesStableAcrossInsertions) {
  // The registry hands out references that callers cache; node-based
  // storage must keep them valid as the registry grows.
  MetricsRegistry metrics;
  auto& first = metrics.counter("first");
  for (int i = 0; i < 100; ++i) {
    // Appended, not `"c" + std::to_string(i)`: GCC 12 reports a false
    // -Wrestrict on that operator+ in Release builds.
    std::string name = "c";
    name += std::to_string(i);
    metrics.counter(name);
  }
  first.inc();
  EXPECT_EQ(metrics.counter("first").value(), 1u);
}

TEST(HistogramTest, EmptySummaryIsZeroed) {
  MetricsRegistry metrics;
  const auto s = metrics.histogram("h").summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.total_weight, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(HistogramTest, UnweightedSummary) {
  MetricsRegistry metrics;
  auto& h = metrics.histogram("h");
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  const auto s = h.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.total_weight, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(HistogramTest, WeightMakesDistributionTimeWeighted) {
  // A queue that sat at 100 bytes for 9 s and at 0 for 1 s: the
  // time-weighted median is "full", not the midpoint.
  MetricsRegistry metrics;
  auto& h = metrics.histogram("occupancy");
  h.record(100.0, 9.0);
  h.record(0.0, 1.0);
  const auto s = h.summary();
  EXPECT_DOUBLE_EQ(s.total_weight, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 90.0);
}

TEST(HistogramTest, NonPositiveWeightIgnored) {
  MetricsRegistry metrics;
  auto& h = metrics.histogram("h");
  h.record(5.0, 0.0);
  h.record(5.0, -1.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(TimeSeriesTest, AppendsInOrder) {
  MetricsRegistry metrics;
  auto& ts = metrics.timeline("series");
  ts.append(1.0, 10.0);
  ts.append(2.0, 20.0);
  ASSERT_EQ(ts.points().size(), 2u);
  EXPECT_DOUBLE_EQ(ts.points()[0].t_seconds, 1.0);
  EXPECT_DOUBLE_EQ(ts.points()[1].value, 20.0);
}

}  // namespace
}  // namespace mgq::obs
