#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgq::obs {
namespace {

/// One unlabelled run: no key prefix, and trace events keep an empty scope.
std::string renderOne(const std::string& bench, const MetricsRegistry& metrics,
                      const TraceBuffer* trace = nullptr) {
  return renderMultiRunJson(bench, {RunExport{"", &metrics, trace}});
}

TEST(JsonExportTest, EmitsAllSections) {
  MetricsRegistry metrics;
  metrics.counter("drops").inc(3);
  metrics.gauge("util").set(0.5);
  metrics.histogram("lat").record(10.0);
  metrics.timeline("kbps").append(1.0, 100.0);
  TraceBuffer trace;
  trace.record("reservation", "admitted", 7, 40e6, "net-forward");

  const std::string json = renderOne("demo", metrics, &trace);

  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"drops\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"util\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"kbps\""), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"admitted\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"net-forward\""), std::string::npos);
}

TEST(JsonExportTest, NonFiniteValuesBecomeNull) {
  MetricsRegistry metrics;
  metrics.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
  metrics.gauge("worse").set(std::numeric_limits<double>::infinity());
  const std::string json = renderOne("nan", metrics);
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
  EXPECT_NE(json.find("\"worse\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan("), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(JsonExportTest, EscapesStringsInTraceEvents) {
  MetricsRegistry metrics;
  TraceBuffer trace;
  trace.record("c", "e", 0, 0.0, "line1\n\"quoted\"\\path");
  const std::string json = renderOne("esc", metrics, &trace);
  EXPECT_NE(json.find("line1\\n\\\"quoted\\\"\\\\path"), std::string::npos);
}

TEST(JsonExportTest, DeterministicAcrossIdenticalRuns) {
  auto render = [] {
    MetricsRegistry metrics;
    // Insertion order differs from name order; output must not care.
    metrics.counter("zeta").inc(1);
    metrics.counter("alpha").inc(2);
    metrics.timeline("t").append(0.5, 1.25);
    return renderOne("det", metrics);
  };
  const std::string a = render();
  EXPECT_EQ(a, render());
  // Sorted keys: "alpha" precedes "zeta".
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
}

TEST(JsonExportTest, EmptyTraceSectionWithoutBuffer) {
  MetricsRegistry metrics;
  EXPECT_NE(renderOne("notrace", metrics)
                .find("\"trace\": {\"dropped\": 0, \"events\": []}"),
            std::string::npos);
}

TEST(ExportBenchJsonTest, WritesFileToDirectory) {
  MetricsRegistry metrics;
  metrics.counter("c").inc(1);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(
      exportMultiRunBenchJson("file_demo", {RunExport{"", &metrics}}, dir));
  const std::string path = dir + "/BENCH_file_demo.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"bench\": \"file_demo\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportBenchJsonTest, FailsGracefullyOnBadDirectory) {
  MetricsRegistry metrics;
  EXPECT_FALSE(exportMultiRunBenchJson("nope", {RunExport{"", &metrics}},
                                       "/nonexistent-dir-for-obs-test"));
}

}  // namespace
}  // namespace mgq::obs
