#include "scenario/fault_targets.hpp"

#include <algorithm>

#include "scenario/builder.hpp"

namespace mgq::scenario {

void registerFaultTargets(BuiltScenario& built,
                          const std::vector<sim::FaultEvent>& plan,
                          std::uint64_t seed) {
  using namespace fault_target;
  auto& rig = built.rig;
  auto& injector = built.injector;
  auto& t = built.fault_targets;

  // Premium edge link, both directions.
  t.edge_link =
      std::make_unique<net::LinkFault>(*rig.garnet.ingressEdgeInterface());
  injector.registerTarget(kEdgeLink, net::linkFaultTarget(*t.edge_link));

  // Wire faults on the premium source's egress (the forward data path into
  // the ingress edge), each with its own splitmix-derived seed stream.
  auto& egress = *rig.garnet.ingressEdgeInterface()->peer();
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  t.edge_loss = std::make_unique<net::LossInjector>(egress, seed);
  injector.registerTarget(kEdgeLoss, net::lossFaultTarget(*t.edge_loss));
  t.edge_corrupt =
      std::make_unique<net::CorruptionInjector>(egress, seed + 1 * kGolden);
  injector.registerTarget(kEdgeCorrupt,
                          net::corruptionFaultTarget(*t.edge_corrupt));
  t.edge_dup =
      std::make_unique<net::DuplicateInjector>(egress, seed + 2 * kGolden);
  injector.registerTarget(kEdgeDup, net::duplicateFaultTarget(*t.edge_dup));
  t.edge_reorder =
      std::make_unique<net::ReorderInjector>(egress, seed + 3 * kGolden);
  injector.registerTarget(kEdgeReorder,
                          net::reorderFaultTarget(*t.edge_reorder));
  t.edge_partition = std::make_unique<net::PartitionFault>(egress);
  injector.registerTarget(kEdgePartition,
                          net::partitionFaultTarget(*t.edge_partition));

  // Footer accounting: zero-valued counters are omitted, so plans that
  // never exercise a category keep byte-identical footers.
  {
    auto* corrupt = t.edge_corrupt.get();
    auto* dup = t.edge_dup.get();
    auto* reorder = t.edge_reorder.get();
    auto* partition = t.edge_partition.get();
    injector.registerFooterCounter(
        "corrupted", [corrupt] { return corrupt->corrupted(); });
    injector.registerFooterCounter(
        "corrupt_skipped", [corrupt] { return corrupt->skipped(); });
    injector.registerFooterCounter("duplicated",
                                   [dup] { return dup->duplicated(); });
    injector.registerFooterCounter(
        "reordered", [reorder] { return reorder->reordered(); });
    injector.registerFooterCounter(
        "blackholed", [partition] { return partition->blackholed(); });
  }

  // A fair-share competitor on the sending host.
  const bool wants_hog =
      std::any_of(plan.begin(), plan.end(), [](const sim::FaultEvent& e) {
        return e.target == kSenderCpuHog;
      });
  if (wants_hog) {
    t.hog = std::make_unique<cpu::CpuHog>(rig.sender_cpu, "competitor");
    sim::FaultTarget target;
    auto* hog = t.hog.get();
    target.down = [hog] { hog->start(); };
    target.up = [hog] { hog->stop(); };
    injector.registerTarget(kSenderCpuHog, std::move(target));
  }

  // Control plane, only for specs that wired the resilience stack: crash
  // and restart the QoS agent + GARA through the builder's orchestration,
  // and pause lease renewals — a "renewal storm" where the holder is alive
  // but cannot renew, so leases hard-expire enforcement.
  if (built.hasResilience()) {
    {
      sim::FaultTarget target;
      auto* resil = &built.resil;
      target.down = [resil] { resil->crash(); };
      target.up = [resil] { resil->restart(); };
      injector.registerTarget(kQosAgent, std::move(target));
    }
    if (built.resil.leases != nullptr) {
      sim::FaultTarget target;
      auto* leases = built.resil.leases.get();
      target.down = [leases] { leases->suspendRenewals(); };
      target.up = [leases] { leases->resumeRenewals(); };
      injector.registerTarget(kLeaseRenewals, std::move(target));
    }
  }
}

}  // namespace mgq::scenario
