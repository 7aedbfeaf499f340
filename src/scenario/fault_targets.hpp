// The fault-target table: the one place that names a fault plan's targets
// and binds them to a built scenario. Scripted faults (ScenarioSpec::faults)
// and chaos plans are the same sim::FaultEvent lists, and both drive these
// objects through the scenario's one sim::FaultInjector.
//
//   premium-edge-link      down/up          LinkFault on the premium edge
//   premium-edge-loss      loss_start/stop  loss episode of the one
//                                           net::WireFaults on the premium
//                                           source's egress wire
//   premium-edge-corrupt   loss_start/stop  corrupt episode, same WireFaults
//   premium-edge-dup       loss_start/stop  duplicate episode, same
//   premium-edge-reorder   loss_start/stop  reorder episode, same
//   premium-edge-partition down/up          its directional partition,
//                                           blackholing that egress
//   sender-cpu-hog         down/up          CpuHog on the sending host
//   qos-agent              down/up          control-plane crash/restart
//                                           (specs with resilience wiring)
//   lease-renewals         down/up          lease renewals paused/resumed
//                                           (specs with leases)
//
// Chaos-only targets, registered by chaos/targets.cpp once the scenario is
// built (scripted runs never carry them):
//
//   net-forward-manager    down/up          FlakyResourceManager proxies for
//   net-reverse-manager                     the rig's network managers
//                                           (down = outage + revoke active)
//   reservation-churn      down             cancel the lowest-id live
//                                           reservation
//                          loss_start(p)    modify it: amount ×= p
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/cpu_scheduler.hpp"
#include "net/faults.hpp"
#include "sim/fault_injector.hpp"

namespace mgq::scenario {

struct BuiltScenario;

namespace fault_target {
inline constexpr const char* kEdgeLink = "premium-edge-link";
inline constexpr const char* kEdgeLoss = "premium-edge-loss";
inline constexpr const char* kEdgeCorrupt = "premium-edge-corrupt";
inline constexpr const char* kEdgeDup = "premium-edge-dup";
inline constexpr const char* kEdgeReorder = "premium-edge-reorder";
inline constexpr const char* kEdgePartition = "premium-edge-partition";
inline constexpr const char* kSenderCpuHog = "sender-cpu-hog";
inline constexpr const char* kQosAgent = "qos-agent";
inline constexpr const char* kLeaseRenewals = "lease-renewals";
inline constexpr const char* kNetForwardManager = "net-forward-manager";
inline constexpr const char* kNetReverseManager = "net-reverse-manager";
inline constexpr const char* kReservationChurn = "reservation-churn";
}  // namespace fault_target

/// The machinery behind the table's targets; must outlive the run (the
/// injector's scheduled events reference it).
struct FaultTargets {
  std::unique_ptr<net::LinkFault> edge_link;
  std::unique_ptr<net::WireFaults> edge_wire;
  /// Only when the plan names sender-cpu-hog: constructing a hog registers
  /// a scheduler job.
  std::unique_ptr<cpu::CpuHog> hog;
};

/// Builds the machinery above into `built.fault_targets` and registers the
/// table's targets with `built.injector`. `seed` seeds the edge WireFaults,
/// which derives one stream per category from it, so enabling one category
/// never perturbs another's draws. The egress wire's fault totals are
/// registered as footer counters (omitted at zero).
void registerFaultTargets(BuiltScenario& built,
                          const std::vector<sim::FaultEvent>& plan,
                          std::uint64_t seed);

}  // namespace mgq::scenario
