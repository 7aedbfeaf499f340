// Per-reservation demand estimation for the adaptive QoS control plane
// (DESIGN.md §15).
//
// The estimator turns counters the data plane already maintains — the
// application's offered-byte count, the receiver's delivered-byte count,
// and the edge policer's conformed/policed totals — into smoothed rate
// signals. It is sampled on the controller's sim-clock cadence and only
// ever *reads* monotone counters, so it adds zero per-packet overhead:
// no hook runs on the forwarding or socket fast paths.
#pragma once

#include <cstdint>
#include <functional>

#include "net/token_bucket.hpp"

namespace mgq::adapt {

/// One cadence interval's smoothed view of a reservation's traffic.
struct DemandSample {
  /// EWMA of the rate the application *wanted* to send (its offered
  /// schedule), whether or not the reservation let it through.
  double offered_bps = 0.0;
  /// EWMA of the rate actually delivered end to end.
  double achieved_bps = 0.0;
  /// Fraction of policer decisions in the last interval that were
  /// out-of-profile (policed / (conformed + policed)); zero when the
  /// flow is shaped to its reservation or no policer is attached.
  double policed_ratio = 0.0;

  /// The demand the policy sizes against: an application that is being
  /// clipped shows it in offered (intent) before achieved can follow.
  double demandBps() const {
    return offered_bps > achieved_bps ? offered_bps : achieved_bps;
  }
};

class DemandEstimator {
 public:
  /// Counter sources. All optional: a missing closure contributes zero.
  /// `policer` is resolved at every sample (not cached) because a
  /// reservation modify re-enforces with a fresh bucket.
  struct Inputs {
    std::function<std::int64_t()> offered_bytes;
    std::function<std::int64_t()> delivered_bytes;
    std::function<const net::TokenBucket*()> policer;
  };

  /// EWMA smoothing weight of each new interval's rate.
  static constexpr double kAlpha = 0.4;

  void setInputs(Inputs inputs) { inputs_ = std::move(inputs); }

  /// Advances one interval of `dt_seconds`: reads the counters, computes
  /// interval rates, and folds them into the EWMAs.
  const DemandSample& sample(double dt_seconds);

  const DemandSample& current() const { return sample_; }

 private:
  static double ewma(double previous, double interval_rate) {
    return previous + kAlpha * (interval_rate - previous);
  }

  Inputs inputs_;
  DemandSample sample_;
  bool primed_ = false;
  std::int64_t prev_offered_ = 0;
  std::int64_t prev_delivered_ = 0;
  const net::TokenBucket* prev_bucket_ = nullptr;
  std::uint64_t prev_conformed_ = 0;
  std::uint64_t prev_policed_ = 0;
};

}  // namespace mgq::adapt
