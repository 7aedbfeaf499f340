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

std::size_t runIndexed(int threads, std::size_t count,
                       const std::function<bool(std::size_t)>& job) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  const auto workers = std::clamp<std::size_t>(
      static_cast<std::size_t>(threads), 1, std::max<std::size_t>(count, 1));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> end{count};
  auto worker = [&] {
    for (std::size_t i = next++; i < end; i = next++) {
      if (job(i)) continue;
      // Lower the end to i + 1 unless a lower failure already did.
      std::size_t current = end;
      while (i + 1 < current && !end.compare_exchange_weak(current, i + 1)) {
      }
    }
  };
  if (workers == 1) {
    worker();
    return end;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return end;
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
  // No echo stream: concurrent workers must not interleave output.
  // Verdicts travel back inside each ScenarioResult.
  runIndexed(threads_, specs.size(), [&](std::size_t i) {
    results[i] = ScenarioRunner().run(specs[i]);
    return true;
  });
  return results;
}

}  // namespace mgq::scenario
