#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace mgq::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_sink_mutex;
std::function<void(LogLevel, const std::string&)> g_sink;  // guarded by mutex
thread_local std::string* t_capture = nullptr;

void defaultSink(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%s] %s\n", logLevelName(level), message.c_str());
}

}  // namespace

LogLevel logLevel() { return g_level.load(std::memory_order_relaxed); }

void setLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void setLogSink(std::function<void(LogLevel, const std::string&)> sink) {
  std::lock_guard lock(g_sink_mutex);
  g_sink = std::move(sink);
}

void logMessage(LogLevel level, const std::string& message) {
  if (level < logLevel()) return;
  if (t_capture != nullptr) {
    *t_capture += std::string("[") + logLevelName(level) + "] " + message +
                  "\n";
    return;
  }
  std::lock_guard lock(g_sink_mutex);
  if (g_sink) {
    g_sink(level, message);
  } else {
    defaultSink(level, message);
  }
}

LogCapture::LogCapture() : outer_(t_capture) { t_capture = &text_; }

LogCapture::~LogCapture() { t_capture = outer_; }

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace mgq::util
