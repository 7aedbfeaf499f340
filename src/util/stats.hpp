// Summary statistics helpers used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <span>

namespace mgq::util {

/// Online accumulator for count/mean/min/max/variance (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Returns the p-th percentile (0..100) by linear interpolation between
/// closest ranks. An empty input yields NaN — a missing series must not
/// masquerade as "zero latency" in exported results.
double percentile(std::span<const double> values, double p);

/// Weighted percentile (0..100) by cumulative weight, nearest-rank: the
/// smallest value whose cumulative weight reaches p% of the total. Used
/// for time-weighted occupancy histograms, where each sample's weight is
/// the duration it was observed for. Empty input, mismatched spans, or a
/// non-positive total weight yield NaN.
double weightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values);

/// Coefficient of variation (stddev/mean); NaN for an empty span, 0 when
/// the (nonempty) input's mean is 0.
double coefficientOfVariation(std::span<const double> values);

}  // namespace mgq::util
