// End-to-end crash-restart: the fault_recovery_crash catalog scenario
// kills the QoS agent and GARA mid-stream, leases shed the orphaned
// enforcement, and the restart replays the journal, reconciles every
// manager, re-issues the QoS intent, and re-converges to granted QoS.
#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/catalog.hpp"
#include "scenario/fault_targets.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mgq::scenario {
namespace {

double counterOf(const ScenarioResult& res, const char* name) {
  return res.metrics == nullptr ? 0.0 : res.metrics->counter(name).value();
}

TEST(CrashRestartScenarioTest, RegistryCarriesTheCrashScenario) {
  ScenarioRegistry registry;
  registerPaperScenarios(registry);
  const auto* info = registry.find("fault_recovery_crash");
  ASSERT_NE(info, nullptr);
  const auto spec = info->make();
  ASSERT_TRUE(spec.resil.has_value());
  ASSERT_TRUE(spec.resil->lease.has_value());
  EXPECT_EQ(*spec.resil->lease, sim::Duration::seconds(2.0));
  EXPECT_TRUE(spec.resil->heartbeats);
  ASSERT_EQ(spec.agent_crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.agent_crashes[0].at_seconds, 20.0);
  EXPECT_DOUBLE_EQ(spec.agent_crashes[0].restart_after_seconds, 5.0);
}

TEST(CrashRestartScenarioTest, CrashRestartReconvergesToGrantedQos) {
  const auto spec = crashRecoverySpec("fault_recovery_crash");
  ScenarioRunner runner;
  const auto res = runner.run(spec);

  // Every declarative check — pre-crash goodput, exactly one
  // crash/restart, lease expiry during the outage, intent re-issue,
  // post-restart goodput recovery, final kGranted — must pass.
  for (const auto& check : res.checks) {
    EXPECT_TRUE(check.ok) << check.what;
  }
  EXPECT_TRUE(res.checksPassed());

  // The restart went through the full reconciliation pipeline.
  EXPECT_EQ(counterOf(res, "resil.crashes"), 1.0);
  EXPECT_EQ(counterOf(res, "resil.restarts"), 1.0);
  EXPECT_EQ(counterOf(res, "resil.reconcile.runs"), 1.0);
  EXPECT_GE(counterOf(res, "resil.reissued_intents"), 1.0);
  EXPECT_GE(counterOf(res, "resil.lease.expired"), 1.0);
  EXPECT_GE(counterOf(res, "gara.crashes"), 1.0);
  EXPECT_EQ(res.qos_state, gq::QosRequestState::kGranted);
}

TEST(CrashRestartScenarioTest, CrashTimingIsTunableViaParams) {
  auto spec = crashRecoverySpec("fault_recovery_crash");
  EXPECT_TRUE(applyParam(spec, "crash_at", 12.0));
  EXPECT_TRUE(applyParam(spec, "restart_after", 2.0));
  EXPECT_TRUE(applyParam(spec, "lease_seconds", 1.0));
  ASSERT_EQ(spec.agent_crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.agent_crashes[0].at_seconds, 12.0);
  EXPECT_DOUBLE_EQ(spec.agent_crashes[0].restart_after_seconds, 2.0);
  ASSERT_TRUE(spec.resil.has_value());
  ASSERT_TRUE(spec.resil->lease.has_value());
  EXPECT_EQ(*spec.resil->lease, sim::Duration::seconds(1.0));
  EXPECT_TRUE(applyParam(spec, "lease_seconds", 0.0));
  ASSERT_TRUE(spec.resil.has_value());
  EXPECT_FALSE(spec.resil->lease.has_value());

  // A crash parameter on a scenario without a control plane engages the
  // resilience stack, so the builder registers the qos-agent target the
  // crash lowers to.
  for (const char* key : {"crash_at", "restart_after"}) {
    auto bare = ScenarioRegistry::paper().find("fig1_under")->make();
    ASSERT_FALSE(bare.resil.has_value());
    EXPECT_FALSE(ScenarioBuilder{}.build(bare)->injector.hasTarget(
        fault_target::kQosAgent));
    ASSERT_TRUE(applyParam(bare, key, 1.0)) << key;
    ASSERT_TRUE(bare.resil.has_value()) << key;
    EXPECT_FALSE(bare.resil->lease.has_value()) << key;
    EXPECT_FALSE(bare.resil->heartbeats) << key;
    ASSERT_EQ(bare.agent_crashes.size(), 1u) << key;
    const auto built = ScenarioBuilder{}.build(bare);
    ASSERT_NE(built->resil, nullptr) << key;
    EXPECT_TRUE(built->injector.hasTarget(fault_target::kQosAgent)) << key;
    EXPECT_FALSE(built->injector.hasTarget(fault_target::kLeaseRenewals))
        << key;
  }
}

TEST(CrashRestartScenarioTest, SameSeedIsDeterministic) {
  ScenarioRunner runner;
  const auto a = runner.run(crashRecoverySpec("fault_recovery_crash"));
  const auto b = runner.run(crashRecoverySpec("fault_recovery_crash"));
  EXPECT_EQ(a.goodput_kbps, b.goodput_kbps);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(counterOf(a, "resil.lease.expired"),
            counterOf(b, "resil.lease.expired"));
  EXPECT_EQ(counterOf(a, "resil.reissued_intents"),
            counterOf(b, "resil.reissued_intents"));
}

}  // namespace
}  // namespace mgq::scenario
