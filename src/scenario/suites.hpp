// Suites: the paper's figures, Table 1, the design ablations and the
// fault-recovery contrast, each as one function over registry specs.
//
// A suite runs its specs through a SweepRunner, prints its curves (series
// and traces), returns its summary tables — measured cells next to the
// paper's numbers where it gives them — and records the checks that
// compare runs (curve shapes, contrasts, replays), the ones a single
// spec's own checks cannot express. `mgq_scenarios --suite NAME` drives
// them; runSuite() prints the summary tables as the suite's Markdown
// block (EXPERIMENTS.md holds each block verbatim), folds each run's own
// verdicts in and writes one merged BENCH_<suite>.json.
#pragma once

#include <string>
#include <vector>

#include "scenario/check.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/table.hpp"

namespace mgq::scenario {

struct SuiteRun {
  /// The runs whose own checks and exports belong to the suite (none for
  /// Table 1's bisection probes).
  std::vector<ScenarioResult> runs;
  std::vector<util::Table> summary;
};

struct SuiteInfo {
  std::string name;
  std::string title;
  std::string paper_ref;
  /// Runs the suite on `pool`, prints its curves to stdout and records
  /// its cross-run checks.
  SuiteRun (*run)(const SweepRunner& pool, CheckReporter& checks);
};

/// Every suite, in paper order.
const std::vector<SuiteInfo>& paperSuites();

/// nullptr when no suite has that name.
const SuiteInfo* findSuite(const std::string& name);

/// Prints the suite's banner, runs it, prints its summary block between
/// `<!-- suite:NAME -->` and `<!-- /suite:NAME -->`, then its cross-run
/// verdicts and the returned runs' own, and writes BENCH_<suite>.json to
/// `json_dir` (recorded as a check).
void runSuite(const SuiteInfo& suite, const SweepRunner& pool,
              CheckReporter& checks, const std::string& json_dir);

}  // namespace mgq::scenario
