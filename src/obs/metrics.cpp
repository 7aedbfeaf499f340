#include "obs/metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace mgq::obs {

void Histogram::record(double value, double weight) {
  if (!*enabled_) return;
  if (weight <= 0.0) return;  // zero-length observation carries no mass
  values_.push_back(value);
  weights_.push_back(weight);
}

Histogram::Summary Histogram::summary() const {
  Summary s;
  if (values_.empty()) return s;
  s.count = values_.size();
  s.min = values_.front();
  s.max = values_.front();
  double weighted_sum = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    s.min = std::min(s.min, values_[i]);
    s.max = std::max(s.max, values_[i]);
    s.total_weight += weights_[i];
    weighted_sum += values_[i] * weights_[i];
  }
  if (s.total_weight > 0.0) s.mean = weighted_sum / s.total_weight;
  s.p50 = util::weightedPercentile(values_, weights_, 50.0);
  s.p95 = util::weightedPercentile(values_, weights_, 95.0);
  s.p99 = util::weightedPercentile(values_, weights_, 99.0);
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_.try_emplace(name, &enabled_).first->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_.try_emplace(name, &enabled_).first->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_.try_emplace(name, &enabled_).first->second;
}

TimeSeries& MetricsRegistry::timeline(const std::string& name) {
  return timelines_.try_emplace(name, &enabled_).first->second;
}

}  // namespace mgq::obs
