// The ISSUE's headline acceptance: the adaptive controller against its
// own static baseline on the identical two-tenant spec. Adaptation must
// lift the hungry tenant's goodput by at least 20% while reclaiming the
// fading tenant's reserved-but-unused bandwidth.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/catalog.hpp"
#include "scenario/runner.hpp"

namespace mgq::scenario {
namespace {

TEST(AdaptiveTradeoffTest, BeatsTheStaticBaselineByAtLeast20Percent) {
  ScenarioRunner runner;
  const auto adaptive =
      runner.run(adaptTwoTenantTradeoffSpec("tradeoff_adaptive", true));
  const auto baseline =
      runner.run(adaptTwoTenantTradeoffSpec("tradeoff_static", false));
  EXPECT_TRUE(adaptive.checksPassed());

  const auto* hungry_adaptive = adaptive.tenant("hungry");
  const auto* hungry_static = baseline.tenant("hungry");
  const auto* fading_adaptive = adaptive.tenant("fading");
  const auto* fading_static = baseline.tenant("fading");
  ASSERT_NE(hungry_adaptive, nullptr);
  ASSERT_NE(hungry_static, nullptr);
  ASSERT_NE(fading_adaptive, nullptr);
  ASSERT_NE(fading_static, nullptr);

  // The static baseline pins the hungry tenant at its 8 Mb/s grant for
  // the whole run; adaptation must be worth at least 20% more goodput.
  EXPECT_GE(hungry_adaptive->goodput_kbps,
            1.2 * hungry_static->goodput_kbps)
      << "adaptive " << hungry_adaptive->goodput_kbps << " kb/s vs static "
      << hungry_static->goodput_kbps << " kb/s";

  // The fading tenant's idle reservation is actually reclaimed — the
  // static run keeps all 28 Mb/s parked until the end.
  EXPECT_DOUBLE_EQ(fading_static->final_kbps, fading_static->initial_kbps);
  EXPECT_LE(fading_adaptive->final_kbps,
            0.5 * fading_adaptive->initial_kbps);

  // The baseline really ran without the controller.
  using Outcome = ScenarioResult::TenantOutcome;
  const auto total = [](const ScenarioResult& res,
                        std::uint64_t Outcome::*field) {
    std::uint64_t sum = 0;
    for (const auto& t : res.tenants) sum += t.*field;
    return sum;
  };
  EXPECT_EQ(total(baseline, &Outcome::grows) +
                total(baseline, &Outcome::shrinks),
            0u);
  EXPECT_EQ(baseline.adapt_ticks, 0u);
  EXPECT_GE(total(adaptive, &Outcome::grows), 2u);
  EXPECT_GE(total(adaptive, &Outcome::shrinks), 2u);
}

}  // namespace
}  // namespace mgq::scenario
