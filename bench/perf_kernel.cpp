#include "perf_kernel.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "chaos/runner.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/condition.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mgq::perf {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

MixResult finishMix(std::string name, std::uint64_t operations,
                    std::uint64_t events_executed, Clock::time_point start) {
  MixResult r;
  r.name = std::move(name);
  r.operations = operations;
  r.events_executed = events_executed;
  r.wall_seconds = secondsSince(start);
  r.ops_per_sec = r.wall_seconds > 0
                      ? static_cast<double>(r.operations) / r.wall_seconds
                      : 0.0;
  return r;
}

}  // namespace

MixResult runScheduleHeavy(int events, int repeat) {
  sim::Simulator simulator(/*seed=*/42);
  sim::Rng rng(7);
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  for (int r = 0; r < repeat; ++r) {
    for (int i = 0; i < events; ++i) {
      simulator.schedule(
          sim::Duration::nanos(rng.uniformInt(0, 1'000'000'000)),
          [&sink] { ++sink; });
    }
    ops += static_cast<std::uint64_t>(events);
    simulator.run();
  }
  ops += simulator.eventsExecuted();
  return finishMix("schedule_heavy", ops, simulator.eventsExecuted(), start);
}

MixResult runCancelHeavy(int timers, int steps) {
  sim::Simulator simulator(/*seed=*/42);
  sim::Rng rng(11);
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  // Arm the ring: every slot holds a pending timer ~1 ms out, the way an
  // open TCP connection always has an RTO pending.
  std::vector<sim::EventId> pending(static_cast<std::size_t>(timers));
  std::vector<bool> armed(static_cast<std::size_t>(timers), false);
  auto arm = [&](std::size_t k) {
    pending[k] = simulator.schedule(
        sim::Duration::nanos(1'000'000 + rng.uniformInt(0, 500'000)),
        [&sink] { ++sink; });
    armed[k] = true;
    ++ops;
  };
  const auto start = Clock::now();
  for (std::size_t k = 0; k < pending.size(); ++k) arm(k);
  for (int s = 0; s < steps; ++s) {
    const auto k = static_cast<std::size_t>(s) % pending.size();
    // Restart the timer before it fires — the per-ACK RTO churn. Each
    // cancel removes its heap entry in place and frees the capture.
    if (armed[k]) {
      simulator.cancel(pending[k]);
      ++ops;
    }
    arm(k);
    // Periodically let ~10% of a ring's deadlines actually surface so the
    // pop path is part of the measurement.
    if (k + 1 == pending.size()) {
      simulator.runFor(sim::Duration::nanos(100'000));
    }
  }
  simulator.run();
  ops += simulator.eventsExecuted();
  return finishMix("cancel_heavy", ops, simulator.eventsExecuted(), start);
}

namespace {

sim::Task<> delayLoop(sim::Simulator& simulator, sim::Rng& rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await simulator.delay(sim::Duration::nanos(rng.uniformInt(1, 1000)));
  }
}

struct PingPongPair {
  sim::Condition cond;
  sim::Condition ack;
  int acks = 0;
  explicit PingPongPair(sim::Simulator& s) : cond(s), ack(s) {}
};

sim::Task<> pingPongWaiter(PingPongPair& pair, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await pair.cond.wait();
    ++pair.acks;
    pair.ack.notifyOne();
  }
}

sim::Task<> pingPongNotifier(PingPongPair& pair, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    pair.cond.notifyOne();
    if (pair.acks <= i) co_await pair.ack.wait();
  }
}

}  // namespace

MixResult runWakeupHeavy(int processes, int rounds) {
  sim::Simulator simulator(/*seed=*/42);
  sim::Rng rng(13);
  // Half the processes sleep/wake on delay(); the rest ping-pong in pairs
  // through per-pair Conditions (waiter acks back on a second one). The
  // waiter is spawned first so it is parked before the first notify.
  const int sleepers = processes / 2;
  const int pairs = (processes - sleepers) / 2;
  std::vector<std::unique_ptr<PingPongPair>> states;
  for (int i = 0; i < sleepers; ++i) {
    simulator.spawn(delayLoop(simulator, rng, rounds));
  }
  for (int i = 0; i < pairs; ++i) {
    states.push_back(std::make_unique<PingPongPair>(simulator));
    simulator.spawn(pingPongWaiter(*states.back(), rounds));
    simulator.spawn(pingPongNotifier(*states.back(), rounds));
  }
  const auto start = Clock::now();
  simulator.run();
  return finishMix("wakeup_heavy", simulator.eventsExecuted(),
                   simulator.eventsExecuted(), start);
}

WallResult runScenarioWall(const std::string& scenario) {
  WallResult r;
  r.name = "e2e_" + scenario;
  const auto* info = scenario::ScenarioRegistry::paper().find(scenario);
  if (info == nullptr) {
    r.ok = false;
    return r;
  }
  auto spec = info->make();
  scenario::ScenarioRunner runner;  // no echo: measure the run, not stdout
  const auto start = Clock::now();
  const auto result = runner.run(spec);
  r.wall_seconds = secondsSince(start);
  r.events_executed = result.events_executed;
  return r;
}

WallResult runChaosBatch(const std::string& scenario, int seeds, int threads,
                         double horizon_seconds) {
  WallResult r;
  r.name = "chaos_" + scenario;
  chaos::ChaosRunner runner;
  chaos::ChaosOptions options;
  options.threads = threads;
  options.horizon_seconds = horizon_seconds;
  const auto start = Clock::now();
  try {
    const auto outcome = runner.runSeeds(scenario, /*first_seed=*/1, seeds,
                                         options);
    r.ok = outcome.ok();
    for (const auto& report : outcome.reports) {
      r.events_executed += report.events_executed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos batch failed: %s\n", e.what());
    r.ok = false;
  }
  r.wall_seconds = secondsSince(start);
  return r;
}

void recordResults(obs::MetricsRegistry& metrics,
                   const std::vector<MixResult>& mixes,
                   const std::vector<WallResult>& walls) {
  for (const auto& m : mixes) {
    metrics.gauge("perf." + m.name + ".ops_per_sec").set(m.ops_per_sec);
    metrics.gauge("perf." + m.name + ".wall_seconds").set(m.wall_seconds);
    metrics.counter("perf." + m.name + ".operations").inc(m.operations);
    metrics.counter("perf." + m.name + ".events_executed")
        .inc(m.events_executed);
  }
  for (const auto& w : walls) {
    metrics.gauge("perf." + w.name + ".wall_seconds").set(w.wall_seconds);
    metrics.counter("perf." + w.name + ".events_executed")
        .inc(w.events_executed);
    metrics.counter("perf." + w.name + ".ok").inc(w.ok ? 1 : 0);
  }
}

std::vector<std::string> checkBaseline(const std::vector<MixResult>& mixes,
                                       const std::string& baseline_path,
                                       double max_regress,
                                       std::string* error) {
  std::vector<std::string> regressions;
  std::ifstream in(baseline_path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + baseline_path;
    return regressions;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // The baseline is a flat {"name": number, ...} object written by
  // --write-baseline; a targeted scan is all the parsing it needs.
  for (const auto& m : mixes) {
    const std::string key = "\"" + m.name + "\"";
    const auto at = text.find(key);
    if (at == std::string::npos) continue;  // mix not pinned
    const auto colon = text.find(':', at + key.size());
    if (colon == std::string::npos) {
      if (error != nullptr) *error = "malformed baseline near " + key;
      return regressions;
    }
    double baseline = 0.0;
    if (std::sscanf(text.c_str() + colon + 1, "%lf", &baseline) != 1) {
      if (error != nullptr) *error = "malformed baseline value for " + key;
      return regressions;
    }
    if (baseline > 0 && m.ops_per_sec < baseline * (1.0 - max_regress)) {
      char line[160];
      std::snprintf(line, sizeof line, "%s: %.0f ops/s < %.0f (baseline %.0f, max regress %.0f%%)",
                    m.name.c_str(), m.ops_per_sec,
                    baseline * (1.0 - max_regress), baseline,
                    max_regress * 100.0);
      regressions.emplace_back(line);
    }
  }
  return regressions;
}

bool writeBaseline(const std::vector<MixResult>& mixes,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "  \"%s\": %.0f%s\n",
                  mixes[i].name.c_str(), mixes[i].ops_per_sec,
                  i + 1 < mixes.size() ? "," : "");
    out << line;
  }
  out << "}\n";
  return out.good();
}

}  // namespace mgq::perf
