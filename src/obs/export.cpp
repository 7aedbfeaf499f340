#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace mgq::obs {
namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

void writeMultiRunJson(std::ostream& os, const std::string& bench_name,
                       const std::vector<RunExport>& runs) {
  // Merge every run's instruments under "<label>." prefixes. std::map
  // gives one global sort over the prefixed keys, so the document layout
  // depends only on content, never on which run finished first.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Summary> histograms;
  std::map<std::string, const TimeSeries*> timelines;
  std::uint64_t dropped = 0;
  for (const auto& run : runs) {
    if (run.metrics == nullptr) continue;
    const std::string prefix = run.label.empty() ? "" : run.label + ".";
    for (const auto& [name, c] : run.metrics->counters()) {
      counters[prefix + name] = c.value();
    }
    for (const auto& [name, g] : run.metrics->gauges()) {
      gauges[prefix + name] = g.value();
    }
    for (const auto& [name, h] : run.metrics->histograms()) {
      histograms[prefix + name] = h.summary();
    }
    for (const auto& [name, series] : run.metrics->timelines()) {
      timelines[prefix + name] = &series;
    }
    if (run.trace != nullptr) dropped += run.trace->droppedEvents();
  }

  os << "{\n  \"bench\": \"" << escaped(bench_name) << "\",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ",") << "\n    \"" << escaped(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "" : ",") << "\n    \"" << escaped(name)
       << "\": " << num(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, s] : histograms) {
    os << (first ? "" : ",") << "\n    \"" << escaped(name) << "\": {"
       << "\"count\": " << s.count
       << ", \"total_weight\": " << num(s.total_weight)
       << ", \"min\": " << num(s.min) << ", \"max\": " << num(s.max)
       << ", \"mean\": " << num(s.mean) << ", \"p50\": " << num(s.p50)
       << ", \"p95\": " << num(s.p95) << ", \"p99\": " << num(s.p99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"timelines\": {";
  first = true;
  for (const auto& [name, series] : timelines) {
    os << (first ? "" : ",") << "\n    \"" << escaped(name) << "\": [";
    bool first_point = true;
    for (const auto& p : series->points()) {
      os << (first_point ? "" : ", ") << "[" << num(p.t_seconds) << ", "
         << num(p.value) << "]";
      first_point = false;
    }
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  // Trace events stay grouped per run, in run order, scoped by the run
  // label.
  os << "  \"trace\": {\"dropped\": " << dropped << ", \"events\": [";
  first = true;
  for (const auto& run : runs) {
    if (run.trace == nullptr) continue;
    const std::string scope = escaped(run.label);
    for (const auto& e : run.trace->events()) {
      os << (first ? "" : ",") << "\n    {\"t\": " << num(e.t_seconds)
         << ", \"scope\": \"" << scope << "\", \"category\": \""
         << escaped(e.category) << "\", \"event\": \"" << escaped(e.event)
         << "\", \"id\": " << e.id << ", \"value\": " << num(e.value)
         << ", \"detail\": \"" << escaped(e.detail) << "\"}";
      first = false;
    }
  }
  if (!first) os << "\n  ";
  os << "]}\n}\n";
}

std::string renderMultiRunJson(const std::string& bench_name,
                               const std::vector<RunExport>& runs) {
  std::ostringstream out;
  writeMultiRunJson(out, bench_name, runs);
  return std::move(out).str();
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool exportMultiRunBenchJson(const std::string& bench_name,
                             const std::vector<RunExport>& runs,
                             const std::string& directory) {
  const std::string path = directory + "/BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write " << path << "\n";
    return false;
  }
  writeMultiRunJson(out, bench_name, runs);
  return out.good();
}

}  // namespace mgq::obs
