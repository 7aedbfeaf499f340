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
  ParamRange param{0.0, 0.0};
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
void generateCategory(sim::Rng& rng, const Category& c, double horizon,
                      std::vector<FaultEvent>& out) {
  if (c.rate <= 0.0) return;
  const double mean_gap = 100.0 / c.rate;
  double t = kWarmupSeconds + rng.exponential(mean_gap);
  while (t < horizon) {
    const auto [lo, hi] = c.param;
    const double param = hi > lo ? rng.uniform(lo, hi) : lo;
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
  constexpr ParamRange kCorrupt{0.005, 0.05};
  constexpr ParamRange kDuplicate{0.01, 0.1};
  constexpr ParamRange kReorder{0.01, 0.1};
  // Stream order is part of every plan: category k draws from its own
  // Rng seeded seed + k × golden ratio, so tuning one category's rate
  // does not reshuffle the others. The control-plane and then the
  // adversarial categories come last: appending streams never reshuffles
  // earlier ones, so existing soak plans stay byte-identical. The second
  // column is the mean episode duration in seconds.
  const Category categories[] = {
      {kEdgeLink, p.link_flaps_per_100s, 0.4},
      {kEdgeLoss, p.loss_episodes_per_100s, 1.5, kLossStart, kLossStop,
       kLossProbability},
      {kNetForwardManager, p.manager_outages_per_100s, 0.8},
      {kNetReverseManager, p.manager_outages_per_100s, 0.8},
      {kSenderCpuHog, p.cpu_hog_bursts_per_100s, 2.0},
      {kReservationChurn, p.reservation_cancels_per_100s, 0.0,
       FaultAction::kDown, FaultAction::kUp, {}, /*paired=*/false},
      {kReservationChurn, p.reservation_modifies_per_100s, 0.0, kLossStart,
       kLossStop, kModifyFactor, /*paired=*/false},
      {kQosAgent, p.agent_crashes_per_100s, 1.0},
      {kLeaseRenewals, p.renewal_storms_per_100s, 2.0},
      {kEdgeCorrupt, p.corruption_episodes_per_100s, 1.5, kLossStart,
       kLossStop, kCorrupt},
      {kEdgeDup, p.duplicate_episodes_per_100s, 1.5, kLossStart, kLossStop,
       kDuplicate},
      {kEdgeReorder, p.reorder_episodes_per_100s, 1.5, kLossStart, kLossStop,
       kReorder},
      {kEdgePartition, p.partition_episodes_per_100s, 0.6},
  };
  std::uint64_t stream = 0;
  for (const auto& c : categories) {
    sim::Rng rng(seed + (++stream) * 0x9e3779b97f4a7c15ULL);
    generateCategory(rng, c, horizon_seconds, plan.events);
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
