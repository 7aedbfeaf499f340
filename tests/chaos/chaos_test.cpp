// End-to-end chaos runner: determinism, skipped-action accounting, the
// planted over-admission bug (caught, shrunk to a minimal schedule, and
// replayed byte-identically), and the 200-seed soaks over the paper
// scenarios.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/runner.hpp"
#include "gara/slot_table.hpp"
#include "net/buffer.hpp"
#include "scenario/builder.hpp"

namespace mgq::chaos {
namespace {

/// A category mix that only issues reservation-modify storms. Their scale
/// factors (kModifyFactor) blow past the premium capacity share when
/// admission is sabotaged and the factor is above ~1.38: fault_recovery_on
/// reserves ~31.8 Mb/s of the 44 Mb/s premium share.
ChaosProfile modifyOnlyProfile() {
  ChaosProfile profile;
  profile.link_flaps_per_100s = 0.0;
  profile.loss_episodes_per_100s = 0.0;
  profile.manager_outages_per_100s = 0.0;
  profile.cpu_hog_bursts_per_100s = 0.0;
  profile.reservation_cancels_per_100s = 0.0;
  profile.reservation_modifies_per_100s = 60.0;
  return profile;
}

TEST(ChaosRunnerTest, SameSeedProducesByteIdenticalLogAndReplay) {
  ChaosOptions options;
  options.horizon_seconds = 3.0;
  const ChaosPlanGenerator generator{options.profile};
  const auto plan = generator.generate("fault_recovery_on", 11, 3.0);

  ChaosRunner runner;
  const auto a = runner.runPlan(plan, options);
  const auto b = runner.runPlan(plan, options);
  EXPECT_TRUE(a.ok()) << a.log;
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.injector_fired, b.injector_fired);
  EXPECT_EQ(serializeReplay(plan), serializeReplay(plan));
}

TEST(ChaosRunnerTest, UnhandledChurnActionsCountAsSkippedInTheLogFooter) {
  // reservation-churn only handles down (cancel) and loss_start (modify);
  // up/loss_stop stay unset by design, so a replay containing them must
  // surface skipped actions in the footer, not vanish.
  ChaosPlan plan;
  plan.scenario = "fig1_under";
  plan.seed = 5;
  plan.horizon_seconds = 3.0;
  sim::FaultEvent cancel;
  cancel.at = sim::TimePoint::fromSeconds(1.0);
  cancel.target = "reservation-churn";
  cancel.action = sim::FaultAction::kDown;
  plan.events.push_back(cancel);
  sim::FaultEvent restore = cancel;
  restore.at = sim::TimePoint::fromSeconds(1.5);
  restore.action = sim::FaultAction::kUp;
  plan.events.push_back(restore);
  sim::FaultEvent stop = cancel;
  stop.at = sim::TimePoint::fromSeconds(2.0);
  stop.action = sim::FaultAction::kLossStop;
  plan.events.push_back(stop);

  ChaosOptions options;
  options.horizon_seconds = 3.0;
  ChaosRunner runner;
  const auto report = runner.runPlan(plan, options);
  EXPECT_TRUE(report.ok()) << report.log;
  EXPECT_EQ(report.injector_fired, 3u);
  EXPECT_EQ(report.injector_skipped, 2u);
  EXPECT_NE(report.log.find("fired=3 skipped_actions=2"), std::string::npos)
      << report.log;
}

/// Sabotages admission control: the fault proxies' slot tables accept
/// anything while still reporting truthful usage, so an oversized modify
/// over-admits past the premium capacity, which only the
/// slot-conservation invariant can notice.
void plantOverAdmission(scenario::BuiltScenario&, ChaosTargets& targets) {
  targets.net_forward->slots().forceOverAdmissionForTest(true);
  targets.net_reverse->slots().forceOverAdmissionForTest(true);
}

TEST(ChaosRunnerTest, PlantedOverAdmissionIsCaughtShrunkAndReplayed) {
  ChaosOptions options;
  options.profile = modifyOnlyProfile();
  options.horizon_seconds = 3.0;
  options.prepare = plantOverAdmission;

  ChaosRunner runner;
  const auto outcome = runner.runSeeds("fault_recovery_on", 1, 200, options);
  ASSERT_FALSE(outcome.ok())
      << "the planted bug must be caught within 200 seeds";
  const auto& failure = *outcome.failure();
  ASSERT_FALSE(failure.violations.empty());
  EXPECT_EQ(failure.violations.front().name, "slot-conservation");
  EXPECT_FALSE(failure.violations.front().trace_tail.empty())
      << "violations must carry the trace-buffer tail";

  // Shrink a plan whose one doubling modify is the whole failure: the
  // harmless 1.1x modify and the loss episode around it must go.
  ChaosPlan plan;
  plan.scenario = "fault_recovery_on";
  plan.seed = 1;
  plan.horizon_seconds = 3.0;
  const auto at = [](double s) { return sim::TimePoint::fromSeconds(s); };
  plan.events = {
      {at(0.8), "reservation-churn", sim::FaultAction::kLossStart, 1.1},
      {at(1.0), "premium-edge-loss", sim::FaultAction::kLossStart, 0.05},
      {at(1.5), "premium-edge-loss", sim::FaultAction::kLossStop, 0.0},
      {at(2.0), "reservation-churn", sim::FaultAction::kLossStart, 2.0},
  };
  int steps = 0;
  const auto minimal = runner.shrink(plan, options, &steps);
  ASSERT_EQ(minimal.events.size(), 1u) << serializeReplay(minimal);
  EXPECT_EQ(minimal.events.front().param, 2.0);
  EXPECT_GT(steps, 0);

  // The replay file reproduces the shrunk run byte-identically.
  const auto replay_text = serializeReplay(minimal);
  ChaosPlan reparsed;
  std::string error;
  ASSERT_TRUE(parseReplay(replay_text, reparsed, error)) << error;
  const auto direct = runner.runPlan(minimal, options);
  const auto replayed = runner.runPlan(reparsed, options);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.violations.front().name, "slot-conservation");
  EXPECT_EQ(replayed.log, direct.log);
  EXPECT_EQ(serializeReplay(reparsed), replay_text);
}

TEST(ChaosRunnerTest, ThreadedSeedSweepMatchesSerial) {
  // The planted over-admission bug fails some seeds but not all: from
  // seed 11 the sweep holds five times, then seed 16 fails with workers
  // busy on the seeds above it. The reports up to the first failing seed
  // must not depend on thread count.
  ChaosOptions options;
  options.profile = modifyOnlyProfile();
  options.horizon_seconds = 3.0;
  options.prepare = plantOverAdmission;
  ChaosRunner runner;
  options.threads = 1;
  const auto serial = runner.runSeeds("fault_recovery_on", 11, 12, options);
  ASSERT_GT(serial.failing_index, 0) << "the failure must land mid-sweep";
  ASSERT_LT(serial.failing_index, 11);
  for (const int threads : {2, 4}) {
    options.threads = threads;
    const auto threaded =
        runner.runSeeds("fault_recovery_on", 11, 12, options);
    EXPECT_EQ(threaded.failing_index, serial.failing_index) << threads;
    ASSERT_EQ(threaded.reports.size(), serial.reports.size()) << threads;
    for (std::size_t i = 0; i < serial.reports.size(); ++i) {
      EXPECT_EQ(threaded.reports[i].log, serial.reports[i].log)
          << threads << " threads, report " << i;
    }
  }
}

TEST(ChaosRunnerTest, EachReportKeepsItsOwnSeedsWarnings) {
  // Crash/restart plans log [WARN] lines from every layer they hit. A
  // worker captures its seed's lines into that seed's report, so what
  // mgq_chaos prints in seed order does not depend on thread count.
  ChaosOptions options;
  options.horizon_seconds = 8.0;
  options.profile.agent_crashes_per_100s = 40.0;
  options.profile.renewal_storms_per_100s = 20.0;
  ChaosRunner runner;
  options.threads = 1;
  const auto serial = runner.runSeeds("fault_recovery_crash", 1, 6, options);
  options.threads = 4;
  const auto threaded =
      runner.runSeeds("fault_recovery_crash", 1, 6, options);
  ASSERT_EQ(threaded.reports.size(), serial.reports.size());
  std::size_t warned = 0;
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(threaded.reports[i].warnings, serial.reports[i].warnings)
        << "report " << i;
    if (!serial.reports[i].warnings.empty()) ++warned;
  }
  EXPECT_GT(warned, 0u);
}

TEST(ChaosRunnerTest, UnsabotagedRunNeverTripsSlotConservation) {
  // The same modify storm without the planted bug: admission control
  // rejects oversized modifies, so the invariants hold.
  ChaosOptions options;
  options.profile = modifyOnlyProfile();
  options.horizon_seconds = 3.0;
  ChaosRunner runner;
  const auto outcome = runner.runSeeds("fault_recovery_on", 1, 20, options);
  EXPECT_TRUE(outcome.ok())
      << (outcome.failure() != nullptr ? outcome.failure()->log
                                       : std::string{});
}

TEST(ChaosRunnerTest, EveryProfileCategoryDrivesARegisteredTarget) {
  // One vocabulary: with every category's rate above zero, each target
  // the generator names is in the table that the builder and the chaos
  // runner register, so no plan entry is logged "(unregistered)".
  ChaosProfile profile;
  for (double* rate :
       {&profile.link_flaps_per_100s, &profile.loss_episodes_per_100s,
        &profile.manager_outages_per_100s, &profile.cpu_hog_bursts_per_100s,
        &profile.reservation_cancels_per_100s,
        &profile.reservation_modifies_per_100s,
        &profile.agent_crashes_per_100s, &profile.renewal_storms_per_100s,
        &profile.corruption_episodes_per_100s,
        &profile.duplicate_episodes_per_100s,
        &profile.reorder_episodes_per_100s,
        &profile.partition_episodes_per_100s}) {
    *rate = 200.0;
  }
  const auto plan =
      ChaosPlanGenerator{profile}.generate("fault_recovery_crash", 1, 3.0);
  std::set<std::string> targets;
  for (const auto& e : plan.events) targets.insert(e.target);
  ASSERT_EQ(targets.size(), 12u) << serializeReplay(plan);

  ChaosOptions options;
  options.profile = profile;
  options.horizon_seconds = 3.0;
  const auto report = ChaosRunner{}.runPlan(plan, options);
  EXPECT_EQ(report.injector_fired, plan.events.size());
  EXPECT_EQ(report.log.find("(unregistered)"), std::string::npos)
      << report.log;
}

// --- 200-seed soaks over the stock paper scenarios -----------------------
// Shortened horizons keep the suite tractable on one core while every
// seed still sees several fault episodes (the full-horizon runs are the
// CLI's job: tools/mgq_chaos --scenario ... --seeds N).

void soak(const std::string& scenario, double horizon) {
  ChaosOptions options;
  options.horizon_seconds = horizon;
  ChaosRunner runner;
  const auto outcome = runner.runSeeds(scenario, 1, 200, options);
  EXPECT_TRUE(outcome.ok())
      << scenario << " seed "
      << (outcome.failure() != nullptr ? outcome.failure()->plan.seed : 0)
      << " violated invariants:\n"
      << (outcome.failure() != nullptr ? outcome.failure()->log
                                       : std::string{});
  EXPECT_EQ(outcome.reports.size(), 200u);
  // 200 rigs were built, faulted (lost packets, overflowed queues), and
  // torn down across the worker threads: every pooled payload buffer in
  // every thread must be back with its pool or freed.
  EXPECT_EQ(net::BufferPool::totalLive(), 0)
      << scenario << " leaked pooled payload buffers";
}

TEST(ChaosSoakTest, Fig1UnderHoldsInvariantsOver200Seeds) {
  soak("fig1_under", 2.5);
}

TEST(ChaosSoakTest, Fig9CombinedHoldsInvariantsOver200Seeds) {
  soak("fig9_combined", 3.0);
}

TEST(ChaosSoakTest, FaultRecoveryHoldsInvariantsOver200Seeds) {
  soak("fault_recovery_on", 3.0);
}

TEST(ChaosSoakTest, AdversarialWireHoldsInvariantsOver200Seeds) {
  // All four adversarial data-plane categories at aggressive rates, plus
  // a pool live-bytes ceiling, against the offered-load TCP scenario (so
  // the checksum-conservation / no-corrupted-delivery / reorder-bound /
  // pool-ceiling invariants are all armed with a live receiver). Every
  // corrupted segment must die at the checksum wall — zero resets — and
  // every pooled byte must be back home at teardown.
  ChaosOptions options;
  options.horizon_seconds = 2.5;
  options.profile.corruption_episodes_per_100s = 60.0;
  options.profile.duplicate_episodes_per_100s = 60.0;
  options.profile.reorder_episodes_per_100s = 60.0;
  options.profile.partition_episodes_per_100s = 30.0;
  options.pool_ceiling_bytes = 8 << 20;
  ChaosRunner runner;
  const auto outcome = runner.runSeeds("fig1_under", 1, 200, options);
  EXPECT_TRUE(outcome.ok())
      << "seed "
      << (outcome.failure() != nullptr ? outcome.failure()->plan.seed : 0)
      << " violated invariants:\n"
      << (outcome.failure() != nullptr ? outcome.failure()->log
                                       : std::string{});
  EXPECT_EQ(outcome.reports.size(), 200u);
  EXPECT_EQ(net::BufferPool::totalLive(), 0)
      << "adversarial soak leaked pooled payload buffers";
}

// --- control-plane resilience ---------------------------------------------

TEST(ChaosSoakTest, AdaptControllerHoldsInvariantsOver200Seeds) {
  // Controller-active soak: the adaptive two-tenant scenario with the
  // QosController resizing reservations every 500 ms while aggressive
  // cancel/modify storms churn the same handles underneath it. Arms the
  // adapt-no-over-admission and adapt-bucket-consistent invariants on
  // top of the standard set; the controller must never over-admit a slot
  // table or leave a bucket mis-paced, no matter what chaos cancels or
  // resizes between its ticks.
  ChaosOptions options;
  options.horizon_seconds = 5.0;
  options.profile.reservation_cancels_per_100s = 40.0;
  options.profile.reservation_modifies_per_100s = 40.0;
  ChaosRunner runner;
  const auto outcome =
      runner.runSeeds("adapt_two_tenant_tradeoff", 1, 200, options);
  EXPECT_TRUE(outcome.ok())
      << "seed "
      << (outcome.failure() != nullptr ? outcome.failure()->plan.seed : 0)
      << " violated invariants:\n"
      << (outcome.failure() != nullptr ? outcome.failure()->log
                                       : std::string{});
  EXPECT_EQ(outcome.reports.size(), 200u);
  EXPECT_EQ(net::BufferPool::totalLive(), 0)
      << "adapt controller soak leaked pooled payload buffers";
}

TEST(ChaosRunnerTest, ManagerRevocationReentersReleaseUnderTheMonitors) {
  // A manager outage mid-run drives FlakyResourceManager::revokeActive,
  // whose reportFailure() re-enters release() for every victim while the
  // lease-safety and no-zombie-enforcement invariants sweep — the
  // re-entrant erase from active_ must leave no zombie behind.
  ChaosPlan plan;
  plan.scenario = "fault_recovery_crash";
  plan.seed = 3;
  plan.horizon_seconds = 3.0;
  sim::FaultEvent down;
  down.at = sim::TimePoint::fromSeconds(1.0);
  down.target = "net-forward-manager";
  down.action = sim::FaultAction::kDown;
  plan.events.push_back(down);
  sim::FaultEvent up = down;
  up.at = sim::TimePoint::fromSeconds(1.5);
  up.action = sim::FaultAction::kUp;
  plan.events.push_back(up);

  ChaosOptions options;
  options.horizon_seconds = 3.0;
  ChaosRunner runner;
  const auto report = runner.runPlan(plan, options);
  EXPECT_TRUE(report.ok()) << report.log;
  EXPECT_EQ(report.injector_fired, 2u);
}

TEST(ChaosSoakTest, CrashRestartHoldsLeaseAndZombieInvariantsOver200Seeds) {
  // fault_recovery_crash wires the full resilience stack, so every run
  // sweeps the lease-safety and no-zombie-enforcement invariants; the
  // profile adds agent crash/restart episodes and renewal storms on top
  // of the stock fault mix (the scripted t=20 crash is outside the
  // shortened horizon and is cleared by the runner anyway).
  ChaosOptions options;
  options.horizon_seconds = 4.0;
  options.profile.agent_crashes_per_100s = 60.0;
  options.profile.renewal_storms_per_100s = 40.0;
  ChaosRunner runner;
  const auto outcome =
      runner.runSeeds("fault_recovery_crash", 1, 200, options);
  EXPECT_TRUE(outcome.ok())
      << "seed "
      << (outcome.failure() != nullptr ? outcome.failure()->plan.seed : 0)
      << " violated invariants:\n"
      << (outcome.failure() != nullptr ? outcome.failure()->log
                                       : std::string{});
  EXPECT_EQ(outcome.reports.size(), 200u);
}

}  // namespace
}  // namespace mgq::chaos
