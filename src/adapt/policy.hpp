// Resize policy for the adaptive QoS control plane (DESIGN.md §15).
//
// The policy sizes a reservation to `demand × headroom` but only acts
// outside a hysteresis band around the current amount, moves by bounded
// steps (multiplicative increase, fractional step decrease), clamps to a
// per-reservation [floor, ceiling], and enforces per-direction cooldowns.
// Together these give the classic stability argument: inside the band
// the controller holds, each action is rate-limited by its cooldown, and
// grow/shrink thresholds are separated so a settled reservation cannot
// oscillate between them on a steady demand signal.
#pragma once

#include "adapt/demand.hpp"

namespace mgq::adapt {

enum class AdaptAction { kHold, kGrow, kShrink };

const char* adaptActionName(AdaptAction a);

/// What the policy wants done this tick. `target_bps` is the desired new
/// amount after step bounding and clamping; `clamped` records that the
/// raw headroom target hit the floor or ceiling (exported as
/// qos.adapt.clamped so a saturated tenant is visible).
struct AdaptDecision {
  AdaptAction action = AdaptAction::kHold;
  double target_bps = 0.0;
  bool clamped = false;
  const char* reason = "hold";
};

class AdaptationPolicy {
 public:
  struct Config {
    /// Target reservation = demand × headroom (>= 1).
    double headroom = 1.25;
    /// Per-reservation clamps (bits/second). ceiling <= 0 = unlimited.
    double floor_bps = 0.0;
    double ceiling_bps = 0.0;
  };

  /// Hysteresis band: grow only when target > current × kGrowThreshold,
  /// shrink only when target < current × kShrinkThreshold. Keeping
  /// kShrinkThreshold < 1 < kGrowThreshold < headroom leaves a hold band
  /// so a steady demand settles instead of flapping.
  static constexpr double kGrowThreshold = 1.05;
  static constexpr double kShrinkThreshold = 0.70;
  /// Multiplicative increase: one grow step raises the amount by at most
  /// this factor (TCP-style probing toward an unknown demand).
  static constexpr double kGrowMultiplier = 1.6;
  /// Step decrease: one shrink step sheds at most this fraction of the
  /// current amount (gradual release, so a demand blip recovers fast).
  static constexpr double kShrinkStep = 0.5;
  /// Minimum spacing between actions in the same direction (seconds).
  static constexpr double kGrowCooldownSeconds = 1.0;
  static constexpr double kShrinkCooldownSeconds = 2.0;

  explicit AdaptationPolicy(Config config) : config_(config) {}

  /// One control decision for a reservation currently sized
  /// `current_bps`, given the latest demand sample, at simulated time
  /// `now_seconds`. Pure with respect to actuation: call notifyApplied /
  /// notifyRefused with the outcome so cooldowns and backoff advance.
  AdaptDecision decide(const DemandSample& demand, double current_bps,
                       double now_seconds) const;

  /// Records an applied action: starts that direction's cooldown and
  /// clears refusal backoff.
  void notifyApplied(AdaptAction action, double now_seconds);

  /// Records a refused modify: doubles the grow backoff (capped at 8×)
  /// so a controller facing a full pool backs off instead of hammering
  /// the broker every tick. The reservation is never failed.
  void notifyRefused(double now_seconds);

  const Config& config() const { return config_; }
  int consecutiveRefusals() const { return refusals_; }

 private:
  double growCooldown() const;

  Config config_;
  double last_grow_ = -1e300;
  double last_shrink_ = -1e300;
  int refusals_ = 0;
};

}  // namespace mgq::adapt
