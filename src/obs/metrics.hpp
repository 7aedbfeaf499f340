// Metrics registry: named counters, gauges, time-weighted histograms and
// timelines, designed to cost next to nothing on hot paths when
// observability is off: MetricsRegistry::setEnabled(false) gates every
// record behind a single bool load, so a registry that is wired up but
// switched off adds one predictable branch.
//
// Hot paths inside net/tcp keep their plain stats structs (a bare integer
// increment); the registry aggregates those via probes and end-of-run
// snapshots instead of sitting in the fast path. Instruments are handed
// out by reference and have stable addresses for the registry's lifetime
// (node-based map), so callers may cache `Counter&` across events.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mgq::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(const bool* enabled) : enabled_(enabled) {}

  void inc(std::uint64_t n = 1) {
    if (*enabled_) value_ += n;
  }
  std::uint64_t value() const { return value_; }

 private:
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (e.g. slot-table utilization).
class Gauge {
 public:
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}

  void set(double v) {
    if (*enabled_) value_ = v;
  }
  double value() const { return value_; }

 private:
  const bool* enabled_;
  double value_ = 0.0;
};

/// Distribution with optional per-sample weights. A periodic sampler
/// records each observation weighted by its observation interval, making
/// the summary a *time-weighted* distribution (a queue that sat full for
/// 9 s and empty for 1 s reports p50 = full).
class Histogram {
 public:
  struct Summary {
    std::size_t count = 0;
    double total_weight = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;  // weighted
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  explicit Histogram(const bool* enabled) : enabled_(enabled) {}

  void record(double value, double weight = 1.0);
  std::size_t count() const { return values_.size(); }
  /// Weighted quantiles/mean; zeroed summary when no samples were taken.
  Summary summary() const;

 private:
  const bool* enabled_;
  std::vector<double> values_;
  std::vector<double> weights_;
};

/// A (simulated-time, value) series, appended by the periodic sampler.
class TimeSeries {
 public:
  struct Point {
    double t_seconds;
    double value;
  };

  explicit TimeSeries(const bool* enabled) : enabled_(enabled) {}

  void append(double t_seconds, double value) {
    if (*enabled_) points_.push_back({t_seconds, value});
  }
  const std::vector<Point>& points() const { return points_; }

 private:
  const bool* enabled_;
  std::vector<Point> points_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void setEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  TimeSeries& timeline(const std::string& name);

  // Exporter iteration (sorted by name — std::map keeps output stable).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, TimeSeries>& timelines() const {
    return timelines_;
  }

 private:
  bool enabled_ = true;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> timelines_;
};

}  // namespace mgq::obs
