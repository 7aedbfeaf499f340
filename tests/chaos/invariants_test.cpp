// InvariantMonitor mechanics and the QoS state-machine legality table.
#include <gtest/gtest.h>

#include "chaos/invariants.hpp"
#include "gq/qos_attribute.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace mgq::chaos {
namespace {

using gq::QosRequestState;
using sim::Duration;
using sim::TimePoint;

TEST(InvariantMonitorTest, CadenceSweepsRunChecksAndRecordViolations) {
  sim::Simulator sim;
  InvariantMonitor monitor(sim);
  int sweeps = 0;
  bool broken = false;
  monitor.addCheck("probe", [&]() -> std::string {
    ++sweeps;
    return broken ? "probe broke" : "";
  });
  monitor.arm();
  sim.runUntil(TimePoint::fromSeconds(2.1));
  EXPECT_EQ(sweeps, 8);  // every 250 ms: t = 0.25, 0.5, ..., 2.0
  EXPECT_TRUE(monitor.ok());

  sim.schedule(Duration::seconds(0.3), [&] { broken = true; });
  sim.runUntil(TimePoint::fromSeconds(3.1));
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations().front().name, "probe");
  EXPECT_EQ(monitor.violations().front().message, "probe broke");
  EXPECT_DOUBLE_EQ(monitor.violations().front().t_seconds, 2.5);
}

TEST(InvariantMonitorTest, ViolationCountIsCappedAndTraceTailAttached) {
  sim::Simulator sim;
  obs::TraceBuffer trace;
  trace.setClock([&sim] { return sim.now().toSeconds(); });
  for (int i = 0; i < 10; ++i) trace.record("test", "event", i);

  InvariantMonitor monitor(sim);
  monitor.attachTrace(&trace);
  monitor.addCheck("always", []() -> std::string { return "bad"; });
  monitor.arm();
  sim.runUntil(TimePoint::fromSeconds(10.0));  // 40 failing sweeps

  ASSERT_EQ(monitor.violations().size(), InvariantMonitor::kMaxViolations);
  const auto& v = monitor.violations().front();
  ASSERT_EQ(v.trace_tail.size(), InvariantMonitor::kTraceTail);
  EXPECT_NE(v.trace_tail.front().find("test.event id=2"), std::string::npos);
  EXPECT_NE(v.trace_tail.back().find("test.event id=9"), std::string::npos);
}

TEST(QosTransitionTest, LegalityTableMatchesTheAgentStateMachine) {
  using S = QosRequestState;
  // The recovery cycle.
  EXPECT_TRUE(gq::qosTransitionLegal(S::kGranted, S::kRecovering));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kRecovering, S::kGranted));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kRecovering, S::kDegraded));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kDegraded, S::kGranted));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kPending, S::kGranted));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kPending, S::kDenied));
  EXPECT_TRUE(gq::qosTransitionLegal(S::kGranted, S::kReleased));

  // kRecovering/kDegraded only via defined edges.
  EXPECT_FALSE(gq::qosTransitionLegal(S::kNone, S::kRecovering));
  EXPECT_FALSE(gq::qosTransitionLegal(S::kDenied, S::kRecovering));
  EXPECT_FALSE(gq::qosTransitionLegal(S::kReleased, S::kDegraded));
  EXPECT_FALSE(gq::qosTransitionLegal(S::kNone, S::kDegraded));
  // A lost reservation degrades; only a refused request is denied.
  EXPECT_FALSE(gq::qosTransitionLegal(S::kGranted, S::kDenied));
  EXPECT_FALSE(gq::qosTransitionLegal(S::kRecovering, S::kDenied));
  // No self-loops, nothing returns to kNone.
  EXPECT_FALSE(gq::qosTransitionLegal(S::kGranted, S::kGranted));
  EXPECT_FALSE(gq::qosTransitionLegal(S::kGranted, S::kNone));
}

}  // namespace
}  // namespace mgq::chaos
