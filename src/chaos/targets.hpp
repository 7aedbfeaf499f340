// Chaos-only fault targets: the FlakyResourceManager proxies
// (net-forward-manager, net-reverse-manager) and reservation-churn, as
// listed in the table of scenario/fault_targets.hpp. Every other target
// lives in that table and serves scripted and chaos plans alike.
//
// The churn target deliberately leaves `up`/`loss_stop` unset — plan
// entries that land on them become logged "(no-op)" lines and count in
// skipped_actions, which the chaos log footer surfaces.
#pragma once

#include <memory>

#include "gara/flaky_resource_manager.hpp"

namespace mgq::scenario {
struct BuiltScenario;
}

namespace mgq::chaos {

/// The manager proxies registered with Gara *in place of* the rig's
/// network managers; tests reach their slot tables here (e.g.
/// forceOverAdmissionForTest). Must outlive the run.
struct ChaosTargets {
  std::unique_ptr<gara::FlakyResourceManager> net_forward;
  std::unique_ptr<gara::FlakyResourceManager> net_reverse;
};

/// Creates the proxies and registers the chaos-only targets with
/// `built.injector`. Call from RunHooks::on_built, before any simulated
/// event has run (the manager swap must precede the first reservation).
/// Plan entries at t <= 0 fire during the build, before this runs, so they
/// find these targets unregistered; the generator's warmup keeps every
/// entry later than that.
ChaosTargets registerChaosTargets(scenario::BuiltScenario& built);

}  // namespace mgq::chaos
