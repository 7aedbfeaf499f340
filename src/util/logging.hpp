// Lightweight leveled logging for the MPICH-GQ reproduction.
//
// The logger is intentionally minimal: a global level, a printf-free
// stream-style macro, and an optional sink override so tests can capture
// output. Simulation code logs with the *simulated* time injected by the
// caller where relevant; the logger itself never touches the wall clock.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace mgq::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the current global log level (default: kWarn, so library users
/// see problems but benchmarks stay quiet).
LogLevel logLevel();

/// Sets the global log level.
void setLogLevel(LogLevel level);

/// Replaces the log sink. The default sink writes to stderr. Passing an
/// empty function restores the default.
void setLogSink(std::function<void(LogLevel, const std::string&)> sink);

/// Emits one log record through the active sink if `level` is enabled.
void logMessage(LogLevel level, const std::string& message);

/// Human-readable name for a level ("TRACE".."ERROR").
const char* logLevelName(LogLevel level);

/// While alive, this thread's enabled log records are appended to text()
/// in the default sink's "[LEVEL] message" line format instead of going
/// to the sink; other threads are unaffected. A nested capture takes
/// over until it ends. Lets a worker thread hand its records to a caller
/// that prints them in a deterministic order.
class LogCapture {
 public:
  LogCapture();
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  const std::string& text() const { return text_; }

 private:
  std::string text_;
  std::string* outer_;
};

}  // namespace mgq::util

// Stream-style logging macro: MGQ_LOG(kInfo) << "x=" << x;
// The stream expression is only evaluated when the level is enabled.
#define MGQ_LOG(level_suffix)                                               \
  for (bool mgq_log_once =                                                  \
           ::mgq::util::logLevel() <= ::mgq::util::LogLevel::level_suffix; \
       mgq_log_once; mgq_log_once = false)                                  \
  ::mgq::util::LogRecord(::mgq::util::LogLevel::level_suffix).stream()

namespace mgq::util {

/// RAII helper backing MGQ_LOG: collects the streamed text and forwards it
/// to the sink on destruction.
class LogRecord {
 public:
  explicit LogRecord(LogLevel level) : level_(level) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() { logMessage(level_, stream_.str()); }

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace mgq::util
