#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

namespace mgq::scenario {

std::vector<ScenarioSpec> expandSweep(const ScenarioSpec& base,
                                      const std::vector<SweepParam>& params) {
  std::vector<ScenarioSpec> out{base};
  for (const auto& p : params) {
    std::vector<ScenarioSpec> next;
    next.reserve(out.size() * p.values.size());
    for (const auto& s : out) {
      for (double v : p.values) {
        ScenarioSpec expanded = s;
        if (!applyParam(expanded, p.key, v)) {
          throw std::invalid_argument(
              "sweep parameter '" + p.key + "=" + paramValueLabel(v) +
              "' does not apply to scenario '" + base.name + "'");
        }
        expanded.name += "/" + p.key + "=" + paramValueLabel(v);
        next.push_back(std::move(expanded));
      }
    }
    out = std::move(next);
  }
  return out;
}

SweepRunner::SweepRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  std::vector<ScenarioResult> results(specs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    // No echo stream: concurrent workers must not interleave output.
    // Verdicts travel back inside each ScenarioResult.
    ScenarioRunner runner;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      results[i] = runner.run(specs[i]);
    }
  };
  const int n =
      std::max(1, std::min<int>(threads_, static_cast<int>(specs.size())));
  if (n == 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (int t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace mgq::scenario
