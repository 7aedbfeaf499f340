// Shape-check collection for scenario runs.
//
// Replaces the old mutable global `mgq::bench::g_checks_failed`: every
// verdict lives in an explicit CheckReporter instance, so concurrent
// scenario runs on a sweep thread pool each record into their own
// reporter (or safely into a shared one — check()/merge() take a mutex)
// and a suite or CLI run aggregates the per-run verdicts afterwards.
#pragma once

#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mgq::scenario {

struct CheckResult {
  std::string what;
  bool ok = false;
};

class CheckReporter {
 public:
  /// `echo`, when set, gets one "[PASS]/[FAIL] what" line per verdict.
  explicit CheckReporter(std::ostream* echo = nullptr) : echo_(echo) {}

  void check(bool ok, const std::string& what);
  void merge(const std::vector<CheckResult>& results);

  std::vector<CheckResult> results() const;
  int failures() const;
  bool allPassed() const { return failures() == 0; }

 private:
  mutable std::mutex mu_;
  std::vector<CheckResult> results_;
  std::ostream* echo_;
};

}  // namespace mgq::scenario
