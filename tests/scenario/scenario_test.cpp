// Tests for the declarative scenario subsystem: spec -> build round trip,
// registry and suite lookup, sweep expansion, check reporting, and the
// determinism contract (same spec + seed => byte-identical BENCH JSON; a
// threaded sweep matches serial execution exactly).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "scenario/builder.hpp"
#include "scenario/catalog.hpp"
#include "scenario/check.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/suites.hpp"
#include "scenario/sweep.hpp"

namespace mgq::scenario {
namespace {

// A short ping-pong under contention: enough to exercise reservation,
// marking, sampling, and the delivered-bytes plumbing in a fraction of a
// second of wall time.
ScenarioSpec quickSpec() {
  auto spec = pingPongSpec("quick", 4000.0, 5000, /*seconds=*/2.0);
  spec.run_until_seconds = 3.0;
  return spec;
}

TEST(ScenarioBuilder, SpecBuildRoundTrip) {
  auto spec = quickSpec();
  spec.checks.push_back(
      {"delivered something", [](const ScenarioResult& r) {
         return r.delivered_bytes > 0;
       }});

  ScenarioBuilder builder;
  auto built = builder.build(spec);
  ASSERT_NE(built, nullptr);
  // The spec's seed reaches the rig's simulator-driven config.
  EXPECT_EQ(spec.seed, 1u);
  // Observability is attached per run, not globally.
  ASSERT_NE(built->metrics, nullptr);
  ASSERT_NE(built->trace, nullptr);
  ASSERT_NE(built->sampler, nullptr);
  ASSERT_TRUE(static_cast<bool>(built->delivered_fn));

  built->rig.sim.runUntil(sim::TimePoint::fromSeconds(3.0));
  EXPECT_GT(built->deliveredBytes(), 0);
  EXPECT_GT(built->pingpong.round_trips, 0);
}

TEST(ScenarioRunner, PopulatesResultAndEvaluatesChecks) {
  auto spec = quickSpec();
  spec.checks.push_back(
      {"delivered something",
       [](const ScenarioResult& r) { return r.delivered_bytes > 0; }});
  spec.checks.push_back(
      {"impossible", [](const ScenarioResult&) { return false; }});

  ScenarioRunner runner;
  const auto result = runner.run(spec);
  EXPECT_EQ(result.name, "quick");
  EXPECT_GT(result.delivered_bytes, 0);
  EXPECT_GT(result.goodput_kbps, 0.0);
  EXPECT_FALSE(result.series.empty());
  ASSERT_NE(result.metrics, nullptr);

  ASSERT_EQ(result.checks.size(), 2u);
  EXPECT_TRUE(result.checks[0].ok);
  EXPECT_EQ(result.checks[0].what, "quick: delivered something");
  EXPECT_FALSE(result.checks[1].ok);
  EXPECT_FALSE(result.checksPassed());
}

TEST(ScenarioRegistry, PaperRegistryLookup) {
  const auto& registry = ScenarioRegistry::paper();
  EXPECT_GE(registry.size(), 18u);

  const auto* fig8 = registry.find("fig8_cpu_reservation");
  ASSERT_NE(fig8, nullptr);
  EXPECT_EQ(fig8->name, "fig8_cpu_reservation");
  const auto spec = fig8->make();
  EXPECT_EQ(spec.name, "fig8_cpu_reservation");
  EXPECT_FALSE(spec.checks.empty());

  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);

  // Filtered listing is sorted and matches by substring.
  const auto faults = registry.list("fault_");
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0]->name, "fault_recovery_crash");
  EXPECT_EQ(faults[1]->name, "fault_recovery_off");
  EXPECT_EQ(faults[2]->name, "fault_recovery_on");
}

TEST(ScenarioRegistry, SuiteExportsNeverOverwriteScenarioExports) {
  // A suite writes BENCH_<suite>.json next to the BENCH_<name>.json and
  // BENCH_<name>_sweep.json files of --run and --sweep.
  const auto& registry = ScenarioRegistry::paper();
  std::set<std::string> names;
  for (const auto& suite : paperSuites()) {
    EXPECT_TRUE(names.insert(suite.name).second) << suite.name;
    EXPECT_EQ(findSuite(suite.name), &suite);
    EXPECT_EQ(registry.find(suite.name), nullptr) << suite.name;
    for (const auto* info : registry.list()) {
      EXPECT_NE(info->name + "_sweep", suite.name);
    }
  }
  EXPECT_EQ(names.size(), 12u);
  EXPECT_EQ(findSuite("fig1_under"), nullptr);
}

TEST(Sweep, ExpandsCrossProductWithLabels) {
  const auto base = quickSpec();
  const auto specs = expandSweep(
      base, {{"message_bytes", {1000, 5000}}, {"seed", {1, 2, 3}}});
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "quick/message_bytes=1000/seed=1");
  EXPECT_EQ(specs.back().name, "quick/message_bytes=5000/seed=3");
  EXPECT_EQ(specs.back().seed, 3u);
  const auto* pp = std::get_if<PingPongWorkload>(&specs.back().workload);
  ASSERT_NE(pp, nullptr);
  EXPECT_EQ(pp->message_bytes, 5000);

  EXPECT_THROW(expandSweep(base, {{"no_such_param", {1}}}),
               std::invalid_argument);

  // Integer keys take whole numbers in range only: a fraction would run
  // a truncated value under the wrong label, and an out-of-range cast is
  // undefined behaviour. A refused value leaves the spec untouched.
  const auto frames = burstTraceSpec("frames", 10.0, 5'000);
  const struct {
    const ScenarioSpec& spec;
    const char* key;
    double value;
  } refused[] = {
      {base, "seed", -1},
      {base, "seed", 2.5},
      {base, "seed", 1e300},
      {base, "seed", std::nan("")},
      {base, "seed", 9007199254740994.0},  // 2^53 + 2
      {base, "message_bytes", 1e12},
      {base, "message_bytes", 0},
      {base, "message_bytes", 99.5},
      {frames, "frame_bytes", -5'000},
      {frames, "frame_bytes", 2.5},
      {frames, "frame_bytes", 1e12},
  };
  auto integers = [](const ScenarioSpec& spec) {
    std::int64_t bytes = 0;
    if (const auto* p = std::get_if<PingPongWorkload>(&spec.workload)) {
      bytes = p->message_bytes;
    } else if (const auto* v =
                   std::get_if<VisualizationWorkload>(&spec.workload)) {
      bytes = v->frame_bytes;
    }
    return std::make_pair(spec.seed, bytes);
  };
  for (const auto& r : refused) {
    auto spec = r.spec;
    EXPECT_FALSE(applyParam(spec, r.key, r.value)) << r.key << "=" << r.value;
    EXPECT_EQ(integers(spec), integers(r.spec));
    EXPECT_THROW(expandSweep(r.spec, {{r.key, {r.value}}}),
                 std::invalid_argument)
        << r.key << "=" << r.value;
  }
  auto largest = base;
  ASSERT_TRUE(applyParam(largest, "seed", 9007199254740992.0));
  EXPECT_EQ(largest.seed, 9007199254740992u);
  ASSERT_TRUE(applyParam(largest, "seed", 0));
  EXPECT_EQ(largest.seed, 0u);
  auto resized = frames;
  ASSERT_TRUE(applyParam(resized, "frame_bytes", 2'500));
  EXPECT_EQ(std::get<VisualizationWorkload>(resized.workload).frame_bytes,
            2'500);
}

TEST(CheckReporter, CountsAndMerges) {
  CheckReporter reporter;
  reporter.check(true, "a");
  reporter.check(false, "b");
  reporter.merge({{"c", true}, {"d", false}});
  EXPECT_EQ(reporter.results().size(), 4u);
  EXPECT_EQ(reporter.failures(), 2);
  EXPECT_FALSE(reporter.allPassed());
}

std::string benchJson(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  obs::writeMultiRunJson(os, "determinism", runExports(results));
  return os.str();
}

TEST(Determinism, SameSpecAndSeedGiveByteIdenticalJson) {
  ScenarioRunner runner;
  const auto a = runner.run(quickSpec());
  const auto b = runner.run(quickSpec());
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(benchJson({a}), benchJson({b}));

  // A changed parameter must show up in the document (no caching by name).
  auto resized = quickSpec();
  applyParam(resized, "message_bytes", 1000);
  const auto c = runner.run(resized);
  EXPECT_NE(benchJson({a}), benchJson({c}));
}

TEST(Determinism, ThreadedSweepMatchesSerial) {
  const auto specs = expandSweep(
      quickSpec(), {{"message_bytes", {1000, 5000}}, {"seed", {1, 2}}});
  ASSERT_EQ(specs.size(), 4u);
  const auto threaded = SweepRunner(2).run(specs);
  const auto serial = SweepRunner(1).run(specs);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_EQ(threaded[i].name, serial[i].name);
    EXPECT_EQ(threaded[i].delivered_bytes, serial[i].delivered_bytes);
  }
  EXPECT_EQ(benchJson(threaded), benchJson(serial));
}

}  // namespace
}  // namespace mgq::scenario
