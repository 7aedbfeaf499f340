// mgq_chaos: randomized chaos/soak runs over the registered scenarios,
// with deterministic shrink-to-minimal replay.
//
//   mgq_chaos --scenario NAME [--seeds N] [--first-seed S] [--horizon SEC]
//             [--shrink] [--threads N] [--json-dir DIR]
//             [--crash-rate R] [--renewal-storm-rate R]
//             [--corrupt-rate R] [--dup-rate R] [--reorder-rate R]
//             [--partition-rate R] [--pool-ceiling BYTES]
//   mgq_chaos --replay FILE [--json-dir DIR]
//
// The seed sweep generates one randomized fault plan per seed and runs it
// under the invariant monitors; the sweep stops at the first violation.
// With --shrink, the failing plan is delta-debugged down to a minimal
// reproducing schedule and written as a replay file
// (chaos_<scenario>_seed<seed>.replay in --json-dir) that --replay
// re-runs byte-identically. Each seed's log records go to stderr in seed
// order once the sweep ends (the shrink's candidate runs print none), so
// two identical sweeps print identical stderr at any --threads. Numbers
// must parse whole: counts and sizes as unsigned integers (--seeds at
// least 1), the horizon and the rates as finite decimals (horizon > 0,
// rates >= 0). Exit code: 0 when every seed held its invariants, 1 on a
// violation (including a reproducing replay), 2 on usage errors.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "chaos/runner.hpp"
#include "cli_parse.hpp"

namespace {

using namespace mgq;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario NAME [--seeds N] [--first-seed S]\n"
               "          [--horizon SEC] [--shrink] [--threads N]\n"
               "          [--crash-rate PER100S] "
               "[--renewal-storm-rate PER100S]\n"
               "          [--corrupt-rate PER100S] [--dup-rate PER100S]\n"
               "          [--reorder-rate PER100S] "
               "[--partition-rate PER100S]\n"
               "          [--pool-ceiling BYTES] [--json-dir DIR]\n"
               "       %s --replay FILE [--json-dir DIR]\n",
               argv0, argv0);
  return 2;
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

void printViolations(const chaos::ChaosRunReport& report) {
  for (const auto& v : report.violations) {
    std::printf("  t=%.6f %s: %s\n", v.t_seconds, v.name.c_str(),
                v.message.c_str());
    for (const auto& line : v.trace_tail) {
      std::printf("    trace: %s\n", line.c_str());
    }
  }
}

int replayFile(const std::string& path, const std::string& json_dir) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read replay file '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  chaos::ChaosPlan plan;
  std::string error;
  if (!chaos::parseReplay(buffer.str(), plan, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  chaos::ChaosRunner runner;
  chaos::ChaosRunReport report;
  try {
    report = runner.runPlan(plan);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::fputs(report.warnings.c_str(), stderr);
  std::printf("replayed %s seed=%llu events=%zu: %s\n",
              plan.scenario.c_str(),
              static_cast<unsigned long long>(plan.seed), plan.events.size(),
              report.ok() ? "no violations" : "VIOLATIONS");
  printViolations(report);
  const auto log_path = json_dir + "/chaos_replay.log";
  if (writeFile(log_path, report.log)) {
    std::printf("chaos log: %s\n", log_path.c_str());
  }
  return report.ok() ? 0 : 1;
}

int sweepSeeds(const std::string& scenario, std::uint64_t first_seed,
               int seeds, bool shrink, const chaos::ChaosOptions& options,
               const std::string& json_dir) {
  chaos::ChaosRunner runner;
  chaos::ChaosOutcome outcome;
  try {
    std::printf("chaos: %s seeds [%llu, %llu) horizon %.3gs\n",
                scenario.c_str(),
                static_cast<unsigned long long>(first_seed),
                static_cast<unsigned long long>(first_seed) + seeds,
                runner.resolveHorizon(scenario, options));
    outcome = runner.runSeeds(scenario, first_seed, seeds, options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // Workers capture their seeds' log records; printing them here, in
  // seed order, makes stderr as deterministic as stdout.
  for (const auto& report : outcome.reports) {
    std::fputs(report.warnings.c_str(), stderr);
  }

  if (outcome.ok()) {
    std::printf("%zu seed(s): all invariants held\n",
                outcome.reports.size());
    return 0;
  }

  const auto& failure = *outcome.failure();
  std::printf("seed %llu VIOLATED invariants after %zu clean seed(s):\n",
              static_cast<unsigned long long>(failure.plan.seed),
              outcome.reports.size() - 1);
  printViolations(failure);

  auto minimal = failure.plan;
  if (shrink) {
    int steps = 0;
    minimal = runner.shrink(failure.plan, options, &steps);
    std::printf("shrunk %zu -> %zu event(s) in %d run(s)\n",
                failure.plan.events.size(), minimal.events.size(), steps);
  }
  const auto replay_path = json_dir + "/chaos_" + scenario + "_seed" +
                           std::to_string(failure.plan.seed) + ".replay";
  if (writeFile(replay_path, chaos::serializeReplay(minimal))) {
    std::printf("replay file: %s\n", replay_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", replay_path.c_str());
  }
  const auto log_path = json_dir + "/chaos_" + scenario + "_seed" +
                        std::to_string(failure.plan.seed) + ".log";
  if (writeFile(log_path, failure.log)) {
    std::printf("chaos log:   %s\n", log_path.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string replay;
  std::string json_dir = ".";
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 50;
  bool shrink = false;
  chaos::ChaosOptions options;
  auto& profile = options.profile;
  const std::pair<std::string, double*> rates[] = {
      {"--crash-rate", &profile.agent_crashes_per_100s},
      {"--renewal-storm-rate", &profile.renewal_storms_per_100s},
      {"--corrupt-rate", &profile.corruption_episodes_per_100s},
      {"--dup-rate", &profile.duplicate_episodes_per_100s},
      {"--reorder-rate", &profile.reorder_episodes_per_100s},
      {"--partition-rate", &profile.partition_episodes_per_100s},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shrink") {
      shrink = true;
      continue;
    }
    // Every other flag takes a value.
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    bool ok = true;
    if (arg == "--scenario") {
      scenario = v;
    } else if (arg == "--replay") {
      replay = v;
    } else if (arg == "--json-dir") {
      json_dir = v;
    } else if (arg == "--seeds") {
      ok = tools::parseWhole(v, INT_MAX, seeds) && seeds >= 1;
    } else if (arg == "--first-seed") {
      ok = tools::parseWhole(v, UINT64_MAX, first_seed);
    } else if (arg == "--threads") {
      ok = tools::parseThreads(v, options.threads);
    } else if (arg == "--pool-ceiling") {
      std::uint64_t bytes = 0;
      ok = tools::parseWhole(v, INT64_MAX, bytes);
      options.pool_ceiling_bytes = static_cast<std::int64_t>(bytes);
    } else if (arg == "--horizon") {
      ok = tools::parseFinite(v, options.horizon_seconds) &&
           options.horizon_seconds > 0;
    } else {
      const auto* rate =
          std::find_if(std::begin(rates), std::end(rates),
                       [&arg](const auto& r) { return r.first == arg; });
      ok = rate != std::end(rates) && tools::parseFinite(v, *rate->second) &&
           *rate->second >= 0;
    }
    if (!ok) return usage(argv[0]);
  }

  if (!replay.empty()) return replayFile(replay, json_dir);
  // The sweep's last seed must not wrap past 2^64-1.
  if (scenario.empty() || seeds - 1 > UINT64_MAX - first_seed) {
    return usage(argv[0]);
  }
  return sweepSeeds(scenario, first_seed, static_cast<int>(seeds), shrink,
                    options, json_dir);
}
