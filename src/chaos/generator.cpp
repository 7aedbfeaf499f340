#include "chaos/generator.hpp"

#include <algorithm>

#include "scenario/fault_targets.hpp"
#include "sim/random.hpp"

namespace mgq::chaos {
namespace {

using namespace scenario::fault_target;
using sim::FaultAction;
using sim::FaultEvent;

/// One category of the profile: the target it drives and how.
struct Category {
  const char* target;
  double rate;          // episodes per 100 simulated seconds
  double mean_seconds;  // mean episode duration (paired categories)
  FaultAction start = FaultAction::kDown;
  FaultAction restore = FaultAction::kUp;
  /// The start event's parameter: uniform in [lo, hi], or lo (no draw)
  /// when the range is empty.
  double lo = 0.0;
  double hi = 0.0;
  /// false: single events with no restore (reservation churn).
  bool paired = true;
};

void add(std::vector<FaultEvent>& out, double t_seconds, const char* target,
         FaultAction action, double param = 0.0) {
  out.push_back(
      {sim::TimePoint::fromSeconds(t_seconds), target, action, param});
}

/// Starts are Poisson with mean gap 100/rate; a paired episode restores
/// at min(start + exponential duration, horizon), and the next start is
/// drawn from the restore time, so episodes never overlap.
void generateCategory(sim::Rng& rng, const Category& c, double warmup,
                      double horizon, std::vector<FaultEvent>& out) {
  if (c.rate <= 0.0) return;
  const double mean_gap = 100.0 / c.rate;
  double t = warmup + rng.exponential(mean_gap);
  while (t < horizon) {
    const double param = c.hi > c.lo ? rng.uniform(c.lo, c.hi) : c.lo;
    add(out, t, c.target, c.start, param);
    if (c.paired) {
      t = std::min(t + rng.exponential(c.mean_seconds), horizon);
      add(out, t, c.target, c.restore);
    }
    t += rng.exponential(mean_gap);
  }
}

}  // namespace

ChaosPlan ChaosPlanGenerator::generate(const std::string& scenario,
                                       std::uint64_t seed,
                                       double horizon_seconds) const {
  ChaosPlan plan;
  plan.scenario = scenario;
  plan.seed = seed;
  plan.horizon_seconds = horizon_seconds;

  const auto& p = profile_;
  constexpr auto kLossStart = FaultAction::kLossStart;
  constexpr auto kLossStop = FaultAction::kLossStop;
  // Stream order is part of every plan: category k draws from its own
  // Rng seeded seed + k × golden ratio, so tuning one category's rate
  // does not reshuffle the others. The control-plane and then the
  // adversarial categories come last: appending streams never reshuffles
  // earlier ones, so existing soak plans stay byte-identical.
  const Category categories[] = {
      {kEdgeLink, p.link_flaps_per_100s, p.mean_flap_seconds},
      {kEdgeLoss, p.loss_episodes_per_100s, p.mean_loss_seconds, kLossStart,
       kLossStop, p.loss_min, p.loss_max},
      {kNetForwardManager, p.manager_outages_per_100s, p.mean_outage_seconds},
      {kNetReverseManager, p.manager_outages_per_100s, p.mean_outage_seconds},
      {kSenderCpuHog, p.cpu_hog_bursts_per_100s, p.mean_hog_seconds},
      {kReservationChurn, p.reservation_cancels_per_100s, 0.0,
       FaultAction::kDown, FaultAction::kUp, 0.0, 0.0, /*paired=*/false},
      {kReservationChurn, p.reservation_modifies_per_100s, 0.0, kLossStart,
       kLossStop, p.modify_min, p.modify_max, /*paired=*/false},
      {kQosAgent, p.agent_crashes_per_100s, p.mean_crash_downtime_seconds},
      {kLeaseRenewals, p.renewal_storms_per_100s, p.mean_storm_seconds},
      {kEdgeCorrupt, p.corruption_episodes_per_100s, p.mean_corruption_seconds,
       kLossStart, kLossStop, p.corrupt_min, p.corrupt_max},
      {kEdgeDup, p.duplicate_episodes_per_100s, p.mean_duplicate_seconds,
       kLossStart, kLossStop, p.duplicate_min, p.duplicate_max},
      {kEdgeReorder, p.reorder_episodes_per_100s, p.mean_reorder_seconds,
       kLossStart, kLossStop, p.reorder_min, p.reorder_max},
      {kEdgePartition, p.partition_episodes_per_100s,
       p.mean_partition_seconds},
  };
  std::uint64_t stream = 0;
  for (const auto& c : categories) {
    sim::Rng rng(seed + (++stream) * 0x9e3779b97f4a7c15ULL);
    generateCategory(rng, c, p.warmup_seconds, horizon_seconds, plan.events);
  }

  // Stable: equal-timestamp events keep the fixed category order above,
  // so the plan (and hence the run) is byte-deterministic.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace mgq::chaos
