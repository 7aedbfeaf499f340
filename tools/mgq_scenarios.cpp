// mgq_scenarios: list, run, and sweep the registered paper scenarios, and
// run the paper's suites.
//
//   mgq_scenarios --list [--filter <substr>]
//   mgq_scenarios --run <name>[,<name>...] [--threads N] [--json-dir DIR]
//   mgq_scenarios --sweep <name> --param key=v1,v2,... [--param ...]
//                 [--threads N] [--json-dir DIR]
//   mgq_scenarios --suite <name>[,<name>...] [--threads N] [--json-dir DIR]
//
// --run executes each named scenario (in parallel when --threads allows),
// prints its check verdicts, and writes one BENCH_<name>.json per
// scenario. --sweep cross-expands the named scenario over the given
// parameters, runs every variant across the thread pool (one independent
// Simulator per run, so results are identical to serial execution), and
// writes a single merged, sorted BENCH_<name>_sweep.json. --suite runs a
// paper figure, table or ablation: its specs across the pool, the paper's
// table, the checks that compare runs, and one BENCH_<suite>.json. The
// exit code is nonzero when any check fails.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "scenario/catalog.hpp"
#include "scenario/check.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/suites.hpp"
#include "scenario/sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace mgq;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list [--filter SUBSTR]\n"
               "       %s --run NAME[,NAME...] [--seed N] [--threads N]\n"
               "          [--json-dir D]\n"
               "       %s --sweep NAME --param KEY=V1,V2,... [--param ...]\n"
               "          [--seed N] [--threads N] [--json-dir D]\n"
               "       %s --suite NAME[,NAME...] [--threads N]\n"
               "          [--json-dir D]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool parseParam(const std::string& arg, scenario::SweepParam& out) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  out.key = arg.substr(0, eq);
  out.values.clear();
  for (const auto& v : splitCommas(arg.substr(eq + 1))) {
    try {
      out.values.push_back(std::stod(v));
    } catch (const std::exception&) {
      return false;
    }
  }
  return !out.values.empty();
}

/// A whole decimal number of threads; 0 means "all cores".
bool parseThreads(const char* arg, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno != 0 || v < 0 || v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

int listScenarios(const std::string& filter) {
  const auto entries = scenario::ScenarioRegistry::paper().list(filter);
  util::Table table({"name", "paper_ref", "title"});
  for (const auto* info : entries) {
    table.addRow({info->name, info->paper_ref, info->title});
  }
  table.renderAscii(std::cout);
  std::printf("%zu scenario(s)\n\n", entries.size());

  util::Table suites({"suite", "paper_ref", "title"});
  std::size_t listed = 0;
  for (const auto& suite : scenario::paperSuites()) {
    if (suite.name.find(filter) == std::string::npos) continue;
    suites.addRow({suite.name, suite.paper_ref, suite.title});
    ++listed;
  }
  suites.renderAscii(std::cout);
  std::printf("%zu suite(s)\n", listed);
  return 0;
}

/// Prints the verdict summary; the exit code is 1 when any check failed.
int finish(const scenario::CheckReporter& checks) {
  const int failed = checks.failures();
  if (failed > 0) {
    std::printf("\n%d check(s) FAILED\n", failed);
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}

void printHeadline(const scenario::ScenarioResult& r) {
  std::printf("%-40s goodput %10.1f kb/s  checks %zu\n", r.name.c_str(),
              r.goodput_kbps, r.checks.size());
}

/// --seed override: retunes a spec's simulation seed via the sweep
/// parameter machinery so the CLI and `--param seed=...` behave alike.
bool applySeedOverride(scenario::ScenarioSpec& spec, const double* seed) {
  if (seed == nullptr) return true;
  if (!scenario::applyParam(spec, "seed", *seed)) {
    std::fprintf(stderr, "scenario '%s' does not accept a seed override\n",
                 spec.name.c_str());
    return false;
  }
  return true;
}

int runScenarios(const std::vector<std::string>& names, const double* seed,
                 int threads, const std::string& json_dir) {
  const auto& registry = scenario::ScenarioRegistry::paper();
  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& name : names) {
    const auto* info = registry.find(name);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   name.c_str());
      return 2;
    }
    specs.push_back(info->make());
    if (!applySeedOverride(specs.back(), seed)) return 2;
  }

  scenario::SweepRunner pool(threads);
  const auto results = pool.run(specs);

  scenario::CheckReporter checks(&std::cout);
  for (const auto& r : results) {
    printHeadline(r);
    checks.merge(r.checks);
    checks.check(
        obs::exportMultiRunBenchJson(r.name, scenario::runExports({r}),
                                     json_dir),
        "wrote BENCH_" + r.name + ".json");
  }
  return finish(checks);
}

int sweepScenario(const std::string& name,
                  const std::vector<scenario::SweepParam>& params,
                  const double* seed, int threads,
                  const std::string& json_dir) {
  const auto& registry = scenario::ScenarioRegistry::paper();
  const auto* info = registry.find(name);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
    return 2;
  }
  std::vector<scenario::ScenarioSpec> specs;
  try {
    // The override lands on the base spec, so every sweep expansion
    // inherits it (a swept seed parameter still wins per variant).
    auto base = info->make();
    if (!applySeedOverride(base, seed)) return 2;
    specs = scenario::expandSweep(base, params);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  scenario::SweepRunner pool(threads);
  std::printf("sweeping %s: %zu variant(s) on %d thread(s)\n", name.c_str(),
              specs.size(), pool.threads());
  const auto results = pool.run(specs);

  util::Table table({"variant", "goodput_kbps", "policer_drops"});
  scenario::CheckReporter checks(&std::cout);
  for (const auto& r : results) {
    table.addRow({r.name, util::Table::num(r.goodput_kbps, 1),
                  std::to_string(r.policer_drops)});
    checks.merge(r.checks);
  }
  table.renderAscii(std::cout);

  checks.check(obs::exportMultiRunBenchJson(name + "_sweep",
                                            scenario::runExports(results),
                                            json_dir),
               "wrote BENCH_" + name + "_sweep.json");
  return finish(checks);
}

int runSuites(const std::vector<std::string>& names, int threads,
              const std::string& json_dir) {
  std::vector<const scenario::SuiteInfo*> suites;
  for (const auto& name : names) {
    const auto* suite = scenario::findSuite(name);
    if (suite == nullptr) {
      std::fprintf(stderr, "unknown suite '%s' (try --list)\n", name.c_str());
      return 2;
    }
    suites.push_back(suite);
  }
  const scenario::SweepRunner pool(threads);
  scenario::CheckReporter checks(&std::cout);
  for (const auto* suite : suites) {
    scenario::runSuite(*suite, pool, checks, json_dir);
  }
  return finish(checks);
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kList, kRun, kSweep, kSuite } mode = Mode::kNone;
  std::string filter;
  std::vector<std::string> run_names;  // --run or --suite
  std::string sweep_name;
  std::vector<scenario::SweepParam> params;
  int threads = 0;
  std::string json_dir = ".";
  bool has_seed = false;
  double seed = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      mode = Mode::kList;
    } else if (arg == "--run") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      mode = Mode::kRun;
      run_names = splitCommas(v);
    } else if (arg == "--suite") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      mode = Mode::kSuite;
      run_names = splitCommas(v);
    } else if (arg == "--sweep") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      mode = Mode::kSweep;
      sweep_name = v;
    } else if (arg == "--param") {
      const char* v = next();
      scenario::SweepParam p;
      if (v == nullptr || !parseParam(v, p)) return usage(argv[0]);
      params.push_back(std::move(p));
    } else if (arg == "--filter") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      filter = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || !parseThreads(v, threads)) return usage(argv[0]);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      try {
        seed = static_cast<double>(std::stoull(v));
      } catch (const std::exception&) {
        return usage(argv[0]);
      }
      has_seed = true;
    } else if (arg == "--json-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      json_dir = v;
    } else {
      return usage(argv[0]);
    }
  }

  switch (mode) {
    case Mode::kList:
      return listScenarios(filter);
    case Mode::kRun:
      if (run_names.empty()) return usage(argv[0]);
      return runScenarios(run_names, has_seed ? &seed : nullptr, threads,
                          json_dir);
    case Mode::kSweep:
      if (params.empty()) return usage(argv[0]);
      return sweepScenario(sweep_name, params, has_seed ? &seed : nullptr,
                           threads, json_dir);
    case Mode::kSuite:
      if (run_names.empty()) return usage(argv[0]);
      return runSuites(run_names, threads, json_dir);
    case Mode::kNone:
      break;
  }
  return usage(argv[0]);
}
