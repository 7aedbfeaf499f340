// Per-layer host-time accounting for the benchmark driver.
//
// perfbench_traced links trace_on.cpp, which interposes every boundary in
// boundaries.def at link time; perfbench links trace_off.cpp, where
// enabled() is false and nothing is recorded. The simulator library is the
// same in both binaries.
//
// Records are aggregated per run (one ScenarioRunner::run, which is one
// catalog scenario or one chaos seed) and per boundary, kept in memory,
// and handed to the driver by take(). Wrapped calls may come from one
// worker thread at a time (ChaosRunner::runSeeds with one thread joins
// each worker before starting the next), never from two at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Boundary {
  std::string layer;
  std::string name;
  bool timed = true;  // false: coroutine entry point, calls counted only
};

struct Cell {
  std::uint64_t calls = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;  // incl_ns minus the wrapped calls inside it
};

struct RunRecord {
  std::string label;  // "<scenario>#<spec seed>"; empty: outside any run
  std::uint64_t events = 0;      // Simulator::eventsExecuted() of the run
  std::int64_t collect_ns = 0;   // runUntil return -> ScenarioRunner::run return
  std::vector<Cell> cells;       // indexed like boundaries()
};

bool enabled();
const std::vector<Boundary>& boundaries();

/// Runs finished since the previous call, followed by one record with an
/// empty label that holds the calls made outside any run.
std::vector<RunRecord> take();

}  // namespace perfbench::trace
