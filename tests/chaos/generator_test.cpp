// ChaosPlanGenerator: deterministic, horizon-respecting, well-formed
// schedules.
#include <gtest/gtest.h>

#include <map>

#include "chaos/generator.hpp"

namespace mgq::chaos {
namespace {

using sim::FaultAction;
using sim::TimePoint;

TEST(ChaosGeneratorTest, SameSeedYieldsByteIdenticalPlans) {
  const ChaosPlanGenerator generator{ChaosProfile{}};
  const auto a = generator.generate("fig1_under", 7, 30.0);
  const auto b = generator.generate("fig1_under", 7, 30.0);
  EXPECT_EQ(serializeReplay(a), serializeReplay(b));
  EXPECT_FALSE(a.events.empty());

  const auto c = generator.generate("fig1_under", 8, 30.0);
  EXPECT_NE(serializeReplay(a), serializeReplay(c));
}

TEST(ChaosGeneratorTest, EventsAreSortedWithinWarmupAndHorizon) {
  const double horizon = 25.0;
  const ChaosPlanGenerator generator{ChaosProfile{}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plan = generator.generate("fig9_combined", seed, horizon);
    TimePoint prev = TimePoint::zero();
    for (const auto& e : plan.events) {
      EXPECT_GE(e.at, prev) << "plan must be sorted";
      prev = e.at;
      EXPECT_GE(e.at.toSeconds(), kWarmupSeconds);
      EXPECT_LE(e.at.toSeconds(), horizon);
    }
  }
}

TEST(ChaosGeneratorTest, PairedEpisodesAlwaysRestoreByHorizon) {
  const double horizon = 40.0;
  const ChaosPlanGenerator generator{ChaosProfile{}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plan = generator.generate("fig1_under", seed, horizon);
    // Per paired target, down/up and loss_start/loss_stop must
    // alternate, ending restored.
    std::map<std::string, int> depth;
    for (const auto& e : plan.events) {
      if (e.target == "reservation-churn") continue;  // unpaired by design
      switch (e.action) {
        case FaultAction::kDown:
        case FaultAction::kLossStart:
          EXPECT_EQ(depth[e.target], 0) << e.target << " double-failed";
          ++depth[e.target];
          break;
        case FaultAction::kUp:
        case FaultAction::kLossStop:
          EXPECT_EQ(depth[e.target], 1) << e.target << " restored twice";
          --depth[e.target];
          break;
      }
    }
    for (const auto& [target, d] : depth) {
      EXPECT_EQ(d, 0) << target << " left failed at the horizon";
    }
  }
}

TEST(ChaosGeneratorTest, RatesGateCategoriesAndParamsStayInRange) {
  ChaosProfile profile;
  profile.link_flaps_per_100s = 0.0;
  profile.manager_outages_per_100s = 0.0;
  profile.cpu_hog_bursts_per_100s = 0.0;
  profile.reservation_cancels_per_100s = 0.0;
  profile.reservation_modifies_per_100s = 40.0;
  profile.loss_episodes_per_100s = 40.0;
  const ChaosPlanGenerator generator{profile};
  const auto plan = generator.generate("fault_recovery_on", 3, 50.0);
  ASSERT_FALSE(plan.events.empty());
  for (const auto& e : plan.events) {
    if (e.target == "reservation-churn") {
      EXPECT_EQ(e.action, FaultAction::kLossStart);  // modify, no cancels
      EXPECT_GE(e.param, kModifyFactor.lo);
      EXPECT_LT(e.param, kModifyFactor.hi);
    } else {
      EXPECT_EQ(e.target, "premium-edge-loss");
      if (e.action == FaultAction::kLossStart) {
        EXPECT_GE(e.param, kLossProbability.lo);
        EXPECT_LT(e.param, kLossProbability.hi);
      }
    }
  }
}

TEST(ChaosGeneratorTest, ControlPlaneCategoriesNeverReshuffleTheOthers) {
  // The agent-crash and renewal-storm categories draw from their own Rng
  // streams appended after the original six, so enabling them must leave
  // every pre-existing category's events byte-identical — soak results
  // from before the control-plane categories existed stay reproducible.
  ChaosProfile with_crashes;
  with_crashes.agent_crashes_per_100s = 30.0;
  with_crashes.renewal_storms_per_100s = 20.0;
  const auto base =
      ChaosPlanGenerator{ChaosProfile{}}.generate("fault_recovery_crash", 7,
                                                  40.0);
  const auto extended =
      ChaosPlanGenerator{with_crashes}.generate("fault_recovery_crash", 7,
                                                40.0);

  std::vector<sim::FaultEvent> extended_without_new;
  bool saw_crash = false, saw_storm = false;
  for (const auto& e : extended.events) {
    if (e.target == "qos-agent") {
      saw_crash = true;
    } else if (e.target == "lease-renewals") {
      saw_storm = true;
    } else {
      extended_without_new.push_back(e);
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_storm);
  ASSERT_EQ(extended_without_new.size(), base.events.size());
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_EQ(base.events[i].at, extended_without_new[i].at) << i;
    EXPECT_EQ(base.events[i].target, extended_without_new[i].target) << i;
    EXPECT_EQ(base.events[i].action, extended_without_new[i].action) << i;
    EXPECT_EQ(base.events[i].param, extended_without_new[i].param) << i;
  }
}

TEST(ChaosGeneratorTest,
     AdversarialCategoriesAppendWithoutPerturbingExisting) {
  // The four adversarial data-plane categories draw from appended Rng
  // streams: enabling them must leave every pre-existing category's
  // events byte-identical for the same seed, and a zero-rate profile
  // must emit none of them at all.
  ChaosProfile with_adversarial;
  with_adversarial.corruption_episodes_per_100s = 50.0;
  with_adversarial.duplicate_episodes_per_100s = 50.0;
  with_adversarial.reorder_episodes_per_100s = 50.0;
  with_adversarial.partition_episodes_per_100s = 30.0;

  const auto base =
      ChaosPlanGenerator{ChaosProfile{}}.generate("fig1_under", 7, 40.0);
  const auto extended =
      ChaosPlanGenerator{with_adversarial}.generate("fig1_under", 7, 40.0);

  const auto isAdversarial = [](const std::string& target) {
    return target == "premium-edge-corrupt" || target == "premium-edge-dup" ||
           target == "premium-edge-reorder" ||
           target == "premium-edge-partition";
  };
  for (const auto& e : base.events) {
    EXPECT_FALSE(isAdversarial(e.target))
        << "zero-rate profile emitted " << e.target;
  }

  std::vector<sim::FaultEvent> extended_without_new;
  std::map<std::string, int> adversarial_counts;
  for (const auto& e : extended.events) {
    if (isAdversarial(e.target)) {
      ++adversarial_counts[e.target];
    } else {
      extended_without_new.push_back(e);
    }
  }
  EXPECT_EQ(adversarial_counts.size(), 4u)
      << "all four adversarial categories should fire at these rates";
  ASSERT_EQ(extended_without_new.size(), base.events.size());
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_EQ(base.events[i].at, extended_without_new[i].at) << i;
    EXPECT_EQ(base.events[i].target, extended_without_new[i].target) << i;
    EXPECT_EQ(base.events[i].action, extended_without_new[i].action) << i;
    EXPECT_EQ(base.events[i].param, extended_without_new[i].param) << i;
  }
}

}  // namespace
}  // namespace mgq::chaos
