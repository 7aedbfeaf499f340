#include "scenario/fault_targets.hpp"

#include <algorithm>
#include <utility>

#include "scenario/builder.hpp"

namespace mgq::scenario {
namespace {

/// qos-agent down: drops agent + GARA state, pauses renewals and
/// heartbeats. Idempotent while already crashed.
void crashControlPlane(BuiltScenario& b) {
  auto& r = *b.resil;
  if (r.crashed) return;
  r.crashed = true;
  r.journal->recordCrash("control plane crashed");
  b.rig.agent.crash();
  b.rig.gara.crash();
  if (r.leases != nullptr) r.leases->suspendRenewals();
  if (r.heartbeats != nullptr) r.heartbeats->suspend();
  if (b.metrics != nullptr) b.metrics->counter("resil.crashes").inc();
}

/// qos-agent up: journal replay, anti-entropy reconcile, heartbeat/lease
/// resume, re-issue of journal-live intents. No-op unless crashed.
void restartControlPlane(BuiltScenario& b) {
  auto& r = *b.resil;
  if (!r.crashed) return;
  r.crashed = false;
  r.journal->recordRestart("control plane restarted");
  // Replay: resume id allocation above everything ever journaled, then
  // reconcile divergence with the managers before re-issuing intents —
  // fail-and-refresh frees pre-crash slots so the re-put reservations
  // admit cleanly.
  b.rig.gara.restartWithNextId(r.journal->maxReservationId() + 1);
  r.reconciler->reconcile(resil::Reconciler::UnclaimedPolicy::kFailAndRefresh);
  if (r.heartbeats != nullptr) r.heartbeats->resume();
  if (r.leases != nullptr) r.leases->resumeRenewals();
  auto& world = b.rig.world;
  const int reissued = b.rig.agent.reissueLiveIntents(
      *r.journal, [&world](std::int32_t context, int rank) -> mpi::Comm* {
        if (rank < 0 || rank >= world.size()) return nullptr;
        auto& comm = world.worldComm(rank);
        return comm.context() == context ? &comm : nullptr;
      });
  if (b.metrics != nullptr) b.metrics->counter("resil.restarts").inc();
  if (b.trace != nullptr) {
    b.trace->record("resil", "restarted", 0, static_cast<double>(reissued),
                    "journal replayed; live intents re-issued");
  }
}

}  // namespace

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
  // the ingress edge).
  auto& egress = *rig.garnet.ingressEdgeInterface()->peer();
  t.edge_wire = std::make_unique<net::WireFaults>(egress, seed);
  using Kind = net::WireFaults::Kind;
  const std::pair<const char*, Kind> wire_targets[] = {
      {kEdgeLoss, Kind::kLoss},       {kEdgeCorrupt, Kind::kCorrupt},
      {kEdgeDup, Kind::kDuplicate},   {kEdgeReorder, Kind::kReorder},
      {kEdgePartition, Kind::kPartition}};
  for (const auto& [name, kind] : wire_targets) {
    injector.registerTarget(name, net::wireFaultTarget(*t.edge_wire, kind));
  }

  // Footer accounting: zero-valued counters are omitted, so plans that
  // never exercise a category keep byte-identical footers.
  const auto& ws = egress.stats();
  injector.registerFooterCounter("corrupted", [&ws] { return ws.corrupted; });
  injector.registerFooterCounter("corrupt_skipped",
                                 [&ws] { return ws.corrupt_skipped; });
  injector.registerFooterCounter("duplicated",
                                 [&ws] { return ws.duplicated; });
  injector.registerFooterCounter("reordered", [&ws] { return ws.reordered; });
  injector.registerFooterCounter("blackholed",
                                 [&ws] { return ws.drops_partition; });

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
  // and restart the QoS agent + GARA, and pause lease renewals — a
  // "renewal storm" where the holder is alive but cannot renew, so leases
  // hard-expire enforcement.
  if (built.resil != nullptr) {
    sim::FaultTarget agent;
    agent.down = [&built] { crashControlPlane(built); };
    agent.up = [&built] { restartControlPlane(built); };
    injector.registerTarget(kQosAgent, std::move(agent));
    if (auto* leases = built.resil->leases.get()) {
      sim::FaultTarget renewals;
      renewals.down = [leases] { leases->suspendRenewals(); };
      renewals.up = [leases] { leases->resumeRenewals(); };
      injector.registerTarget(kLeaseRenewals, std::move(renewals));
    }
  }
}

}  // namespace mgq::scenario
