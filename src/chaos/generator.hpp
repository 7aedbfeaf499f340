// ChaosPlanGenerator: derives a randomized fault schedule (a ChaosPlan)
// from a small distribution spec (ChaosProfile) and a seed.
//
// Episode starts are drawn with exponential inter-arrival gaps (Poisson
// processes, one per category), durations are exponential, and paired
// events (down/up, loss_start/loss_stop) never overlap within a category
// — the next episode is drawn from the previous restore time. Everything
// is clamped to the horizon so a plan always leaves its targets restored
// by (or at) the end of the run.
//
// Determinism: each category draws from its own splitmix-derived Rng, so
// the same (profile, seed, scenario, horizon) always yields the same plan
// and tuning one category's rate does not reshuffle the others.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/plan.hpp"

namespace mgq::chaos {

/// No events before this time — lets connections and inline reservations
/// establish first.
inline constexpr double kWarmupSeconds = 0.5;

/// A start event's parameter range: uniform in [lo, hi].
struct ParamRange {
  double lo;
  double hi;
};
/// Drop probability of a loss episode.
inline constexpr ParamRange kLossProbability{0.05, 0.5};
/// Factor a modify storm scales the victim reservation's amount by.
inline constexpr ParamRange kModifyFactor{0.5, 2.0};

/// The chaos workload's input vector: one rate per category, in episodes
/// per 100 simulated seconds (0 disables a category). Each category
/// drives one target of the fault-target table
/// (scenario/fault_targets.hpp); its mean episode duration and parameter
/// range are fixed in the generator's category table.
struct ChaosProfile {
  double link_flaps_per_100s = 4.0;
  double loss_episodes_per_100s = 4.0;
  double manager_outages_per_100s = 3.0;
  double cpu_hog_bursts_per_100s = 2.0;
  double reservation_cancels_per_100s = 2.0;
  double reservation_modifies_per_100s = 2.0;
  /// Control-plane chaos (zero by default so existing plans stay
  /// byte-identical): QoS-agent crash/restart episodes and lease-renewal
  /// outages ("renewal storms" — the holder is alive but cannot renew,
  /// so leases hard-expire). Only meaningful against specs that wired the
  /// resilience stack; the targets warn-and-skip otherwise.
  double agent_crashes_per_100s = 0.0;
  double renewal_storms_per_100s = 0.0;
  /// Adversarial data-plane chaos (zero by default, same byte-identical
  /// guarantee): corruption / duplication / reorder episodes on the
  /// premium edge's egress wire, and directional partition episodes that
  /// blackhole it until healed.
  double corruption_episodes_per_100s = 0.0;
  double duplicate_episodes_per_100s = 0.0;
  double reorder_episodes_per_100s = 0.0;
  double partition_episodes_per_100s = 0.0;
};

class ChaosPlanGenerator {
 public:
  explicit ChaosPlanGenerator(ChaosProfile profile)
      : profile_(std::move(profile)) {}

  /// Generates the plan for one (scenario, seed, horizon) triple. Events
  /// come back sorted by time; ties keep a fixed category order.
  ChaosPlan generate(const std::string& scenario, std::uint64_t seed,
                     double horizon_seconds) const;

  const ChaosProfile& profile() const { return profile_; }

 private:
  ChaosProfile profile_;
};

}  // namespace mgq::chaos
