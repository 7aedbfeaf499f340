#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"

namespace mgq::obs {
namespace {

TEST(TraceBufferTest, RecordsFieldsAndScope) {
  TraceBuffer trace;
  trace.record("reservation", "admitted", 7, 40e6, "net-forward");
  ASSERT_EQ(trace.events().size(), 1u);
  // A buffer's events are scoped by the run label they are exported under.
  const std::string json =
      renderMultiRunJson("b", {RunExport{"run1", nullptr, &trace}});
  EXPECT_NE(json.find("\"scope\": \"run1\""), std::string::npos);
  const auto& e = trace.events().front();
  EXPECT_EQ(e.category, "reservation");
  EXPECT_EQ(e.event, "admitted");
  EXPECT_EQ(e.id, 7u);
  EXPECT_DOUBLE_EQ(e.value, 40e6);
  EXPECT_EQ(e.detail, "net-forward");
}

TEST(TraceBufferTest, ClockStampsEvents) {
  TraceBuffer trace;
  double now = 1.5;
  trace.setClock([&now] { return now; });
  trace.record("qos", "granted");
  now = 3.0;
  trace.record("qos", "lost");
  EXPECT_DOUBLE_EQ(trace.events()[0].t_seconds, 1.5);
  EXPECT_DOUBLE_EQ(trace.events()[1].t_seconds, 3.0);
}

TEST(TraceBufferTest, NoClockStampsZero) {
  TraceBuffer trace;
  trace.record("qos", "granted");
  EXPECT_DOUBLE_EQ(trace.events().front().t_seconds, 0.0);
}

TEST(TraceBufferTest, RingDropsOldestWhenFull) {
  TraceBuffer trace(3);
  for (int i = 0; i < 5; ++i) {
    trace.record("c", "e", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.droppedEvents(), 2u);
  // The two oldest (0, 1) were discarded.
  EXPECT_EQ(trace.events().front().id, 2u);
  EXPECT_EQ(trace.events().back().id, 4u);
}

TEST(TraceBufferTest, ZeroCapacityClampedToOne) {
  TraceBuffer trace(0);
  EXPECT_EQ(trace.capacity(), 1u);
  trace.record("c", "first");
  trace.record("c", "second");
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events().front().event, "second");
}

TEST(TraceBufferTest, ScopeSwitchesMidStream) {
  // Multi-run benches keep one buffer per run; the merged document scopes
  // each run's events by its label, in run order.
  TraceBuffer under;
  under.record("reservation", "admitted");
  TraceBuffer adequate;
  adequate.record("reservation", "admitted");
  const std::string json =
      renderMultiRunJson("b", {RunExport{"under", nullptr, &under},
                               RunExport{"adequate", nullptr, &adequate}});
  const auto first = json.find("\"scope\": \"under\"");
  const auto second = json.find("\"scope\": \"adequate\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

}  // namespace
}  // namespace mgq::obs
