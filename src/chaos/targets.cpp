#include "chaos/targets.hpp"

#include "gara/gara.hpp"
#include "scenario/builder.hpp"

namespace mgq::chaos {

ChaosTargets registerChaosTargets(scenario::BuiltScenario& built) {
  using namespace scenario::fault_target;
  ChaosTargets t;
  auto& rig = built.rig;
  auto& injector = built.injector;

  // Manager outages: wrap the rig's network managers in failure proxies
  // and re-register them under the same resource names (replace
  // semantics), so every reservation from here on is admitted through the
  // proxy's slot table and can be revoked by an outage.
  t.net_forward =
      std::make_unique<gara::FlakyResourceManager>(rig.net_forward);
  t.net_reverse =
      std::make_unique<gara::FlakyResourceManager>(rig.net_reverse);
  rig.gara.registerManager("net-forward", *t.net_forward);
  rig.gara.registerManager("net-reverse", *t.net_reverse);
  injector.registerTarget(kNetForwardManager, t.net_forward->faultTarget());
  injector.registerTarget(kNetReverseManager, t.net_reverse->faultTarget());

  // Reservation churn: cancel/modify storms against whatever is live at
  // firing time, lowest id first (liveHandles() is sorted) so the victim
  // choice is deterministic. `up`/`loss_stop` stay unset by design.
  sim::FaultTarget churn;
  auto* gara = &rig.gara;
  churn.down = [gara] {
    const auto live = gara->liveHandles();
    if (!live.empty()) gara->cancel(live.front());
  };
  churn.loss_start = [gara](double factor) {
    const auto live = gara->liveHandles();
    if (live.empty()) return;
    const auto& victim = live.front();
    gara->modify(victim, victim->request().amount * factor);
  };
  injector.registerTarget(kReservationChurn, std::move(churn));
  return t;
}

}  // namespace mgq::chaos
