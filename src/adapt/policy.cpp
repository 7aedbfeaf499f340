#include "adapt/policy.hpp"

#include <algorithm>

namespace mgq::adapt {

const char* adaptActionName(AdaptAction a) {
  switch (a) {
    case AdaptAction::kHold:
      return "hold";
    case AdaptAction::kGrow:
      return "grow";
    case AdaptAction::kShrink:
      return "shrink";
  }
  return "?";
}

double AdaptationPolicy::growCooldown() const {
  const int backoff = std::min(refusals_, 3);  // 1x..8x
  return kGrowCooldownSeconds * static_cast<double>(1 << backoff);
}

AdaptDecision AdaptationPolicy::decide(const DemandSample& demand,
                                       double current_bps,
                                       double now_seconds) const {
  AdaptDecision d;
  d.target_bps = current_bps;
  if (current_bps <= 0.0) return d;

  const double raw_target = demand.demandBps() * config_.headroom;
  double target = std::max(raw_target, config_.floor_bps);
  if (config_.ceiling_bps > 0.0) target = std::min(target, config_.ceiling_bps);
  d.clamped = target != raw_target;

  if (target > current_bps * kGrowThreshold) {
    if (now_seconds - last_grow_ < growCooldown()) {
      d.reason = "grow-cooldown";
      return d;
    }
    d.action = AdaptAction::kGrow;
    d.target_bps = std::min(target, current_bps * kGrowMultiplier);
    d.reason = "demand above band";
    return d;
  }
  if (target < current_bps * kShrinkThreshold) {
    if (now_seconds - last_shrink_ < kShrinkCooldownSeconds) {
      d.reason = "shrink-cooldown";
      return d;
    }
    d.action = AdaptAction::kShrink;
    d.target_bps =
        std::max(target, current_bps * (1.0 - kShrinkStep));
    d.reason = "demand below band";
    return d;
  }
  d.reason = "within band";
  return d;
}

void AdaptationPolicy::notifyApplied(AdaptAction action, double now_seconds) {
  refusals_ = 0;
  if (action == AdaptAction::kGrow) last_grow_ = now_seconds;
  if (action == AdaptAction::kShrink) last_shrink_ = now_seconds;
}

void AdaptationPolicy::notifyRefused(double now_seconds) {
  ++refusals_;
  // A refused grow still starts the (backed-off) cooldown clock, so the
  // next attempt waits the full extended interval.
  last_grow_ = now_seconds;
}

}  // namespace mgq::adapt
