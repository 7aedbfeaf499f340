#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mgq::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double weightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (values.empty() || values.size() != weights.size()) return nan;
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return nan;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * total;
  double cum = 0.0;
  for (std::size_t i : order) {
    cum += weights[i];
    if (cum >= target) return values[i];
  }
  return values[order.back()];
}

double mean(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.mean();
}

double coefficientOfVariation(std::span<const double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  RunningStats s;
  for (double v : values) s.add(v);
  if (s.mean() == 0.0) return 0.0;
  return s.stddev() / s.mean();
}

}  // namespace mgq::util
