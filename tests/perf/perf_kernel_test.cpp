// mgq_perf's end-to-end chaos probe reports the simulator events its runs
// executed.
#include "perf_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "chaos/runner.hpp"

namespace mgq::perf {
namespace {

TEST(PerfKernelTest, ChaosBatchReportsTheEventsItsRunsExecuted) {
  constexpr double kHorizon = 1.0;
  const auto batch =
      runChaosBatch("fig1_under", /*seeds=*/2, /*threads=*/1, kHorizon);
  ASSERT_TRUE(batch.ok);

  chaos::ChaosOptions options;
  options.threads = 1;
  options.horizon_seconds = kHorizon;
  chaos::ChaosRunner runner;
  const auto outcome = runner.runSeeds("fig1_under", 1, 2, options);
  ASSERT_EQ(outcome.reports.size(), 2u);
  std::uint64_t sum = 0;
  for (const auto& report : outcome.reports) {
    EXPECT_GT(report.events_executed, 0u);
    sum += report.events_executed;
  }
  EXPECT_GT(batch.events_executed, 0u);
  EXPECT_EQ(batch.events_executed, sum);
}

}  // namespace
}  // namespace mgq::perf
