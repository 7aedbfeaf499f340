// The JSON exporter for metrics registries and trace buffers: one writer,
// merging any number of runs into one document.
//
// Document shape (one per bench, file BENCH_<name>.json):
//   {
//     "bench": "<name>",
//     "counters":   {"<metric>": <uint>, ...},
//     "gauges":     {"<metric>": <double>, ...},
//     "histograms": {"<metric>": {"count": N, "total_weight": W,
//                                 "min":..,"max":..,"mean":..,
//                                 "p50":..,"p95":..,"p99":..}, ...},
//     "timelines":  {"<series>": [[t_seconds, value], ...], ...},
//     "trace": {"dropped": N,
//               "events": [{"t":.., "scope":"..", "category":"..",
//                           "event":"..", "id":N, "value":..,
//                           "detail":".."}, ...]}
//   }
// Non-finite doubles (NaN/inf) are emitted as null — strict JSON has no
// NaN literal. Keys are sorted (std::map iteration), so two identical
// runs produce byte-identical files. The writer is hand-rolled: the
// project takes no JSON dependency.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgq::obs {

/// One run's contribution to a merged multi-run document. The registries
/// must outlive the write call.
struct RunExport {
  std::string label;
  const MetricsRegistry* metrics = nullptr;
  const TraceBuffer* trace = nullptr;
};

/// Merged multi-run document in the shape above: every metric key is
/// prefixed "<label>." (nothing for an empty label), trace events carry
/// "<label>" as their scope, and runs are emitted in the given order with
/// all metric sections globally key-sorted. Output depends only on
/// (bench_name, runs) — a parallel sweep that fills `runs` in spec order
/// produces bytes identical to a serial one.
void writeMultiRunJson(std::ostream& os, const std::string& bench_name,
                       const std::vector<RunExport>& runs);

/// Writes the merged document to `<directory>/BENCH_<bench_name>.json`;
/// returns false (leaving a message on stderr) when the file cannot be
/// created.
bool exportMultiRunBenchJson(const std::string& bench_name,
                             const std::vector<RunExport>& runs,
                             const std::string& directory = ".");

/// writeMultiRunJson rendered to a string — for tests and golden guards
/// that hash or diff the document instead of writing a file.
std::string renderMultiRunJson(const std::string& bench_name,
                               const std::vector<RunExport>& runs);

/// FNV-1a 64-bit hash. Used by the golden-determinism guard to pin BENCH
/// documents with a short checked-in fingerprint instead of full files.
std::uint64_t fnv1a64(std::string_view data);

}  // namespace mgq::obs
