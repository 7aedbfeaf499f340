#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mgq::util {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setLogSink([this](LogLevel level, const std::string& msg) {
      records_.emplace_back(level, msg);
    });
    setLogLevel(LogLevel::kInfo);
  }
  void TearDown() override {
    setLogSink({});
    setLogLevel(LogLevel::kWarn);
  }
  std::vector<std::pair<LogLevel, std::string>> records_;
};

TEST_F(LoggingTest, EnabledLevelIsEmitted) {
  MGQ_LOG(kInfo) << "hello " << 42;
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].second, "hello 42");
  EXPECT_EQ(records_[0].first, LogLevel::kInfo);
}

TEST_F(LoggingTest, DisabledLevelIsSuppressed) {
  MGQ_LOG(kDebug) << "quiet";
  EXPECT_TRUE(records_.empty());
}

TEST_F(LoggingTest, SuppressedStreamNotEvaluated) {
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 1;
  };
  MGQ_LOG(kTrace) << expensive();
  EXPECT_EQ(evaluations, 0);
}

TEST_F(LoggingTest, LevelNames) {
  EXPECT_STREQ(logLevelName(LogLevel::kError), "ERROR");
  EXPECT_STREQ(logLevelName(LogLevel::kTrace), "TRACE");
}

TEST_F(LoggingTest, CaptureTakesThisThreadsRecordsUntilItEnds) {
  {
    LogCapture outer;
    MGQ_LOG(kWarn) << "first";
    {
      LogCapture inner;
      MGQ_LOG(kInfo) << "nested";
      MGQ_LOG(kDebug) << "below the level";
      EXPECT_EQ(inner.text(), "[INFO] nested\n");
    }
    MGQ_LOG(kError) << "second";
    EXPECT_EQ(outer.text(), "[WARN] first\n[ERROR] second\n");
  }
  EXPECT_TRUE(records_.empty());
  MGQ_LOG(kWarn) << "after";
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].second, "after");
}

TEST_F(LoggingTest, SetLevelRoundTrips) {
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  MGQ_LOG(kWarn) << "dropped";
  EXPECT_TRUE(records_.empty());
  MGQ_LOG(kError) << "kept";
  EXPECT_EQ(records_.size(), 1u);
}

}  // namespace
}  // namespace mgq::util
