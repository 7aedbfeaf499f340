// The MPI QoS Agent (paper Figure 2): "incorporates the rules used to
// translate application-level QoS specifications into the lower-level
// commands and parameters required to implement QoS."
//
// Wiring: the agent registers the MPICH_GQ_QOS keyval and installs a put
// hook, so MPI_Attr_put on any communicator *triggers* the QoS request
// (§4.1). The agent then, asynchronously:
//   1. extracts the communicator's flows (host/port tuples) by forcing
//      connection establishment — each rank handles its own outgoing
//      directions, matching diffserv's sender-side edge policing;
//   2. translates the application rate to a network reservation using the
//      protocol-overhead rule and the bucket-depth rule;
//   3. requests an all-or-nothing co-reservation from GARA.
// MPI_Attr_get (or status()) reports whether the requested QoS is in
// place.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "gara/gara.hpp"
#include "gq/qos_attribute.hpp"
#include "mpi/world.hpp"
#include "resil/journal.hpp"

namespace mgq::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace mgq::obs

namespace mgq::gq {

class QosAgent {
 public:
  // Failure recovery (Config::recovery). A lost reservation, or a first
  // request that is refused, is retried up to kMaxRetries times with
  // exponential backoff (kInitialBackoff × kBackoffMultiplier^n, capped
  // at kMaxBackoff) scaled by a seeded jitter uniform in
  // [1 - kJitter, 1 + kJitter] drawn from the simulator's Rng, so
  // recovery timing is reproducible per seed. Exhausted retries degrade
  // the communicator to best effort and keep probing every
  // kReescalateInterval (jittered alike) until capacity returns.
  static constexpr int kMaxRetries = 6;
  static constexpr sim::Duration kInitialBackoff = sim::Duration::millis(250);
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr sim::Duration kMaxBackoff = sim::Duration::seconds(2.0);
  static constexpr double kJitter = 0.1;
  static constexpr sim::Duration kReescalateInterval =
      sim::Duration::seconds(2.0);

  struct Config {
    /// GARA resource used for a flow when `resource_resolver` is unset or
    /// returns empty.
    std::string default_network_resource;
    /// Maps a concrete flow to the GARA network resource managing its
    /// path (multi-domain deployments register one manager per edge).
    std::function<std::string(const net::FlowKey&)> resource_resolver;
    /// Off (the paper's fire-and-forget request semantics): a lost
    /// reservation degrades to best effort for good, and a refused
    /// request is reported kDenied. On: both enter the retry loop above.
    bool recovery = false;
  };

  /// Registers the QoS keyval on the world's attribute registry.
  QosAgent(mpi::World& world, gara::Gara& gara, Config config);
  QosAgent(const QosAgent&) = delete;
  QosAgent& operator=(const QosAgent&) = delete;

  /// The MPICH_GQ_QOS keyval: put a QosAttribute* on a communicator to
  /// request QoS.
  mpi::Keyval keyval() const { return keyval_; }

  /// Current request state for this rank's view of the communicator.
  QosStatus status(const mpi::Comm& comm) const;

  /// Suspends until the request triggered by the last attrPut on `comm`
  /// settles (granted, denied, or degraded — kPending/kRecovering are the
  /// unsettled states).
  sim::Task<> awaitSettled(const mpi::Comm& comm);

  /// Releases any reservations this rank holds for the communicator.
  void release(const mpi::Comm& comm);

  /// The reservation rate for an attribute: bandwidth × protocol
  /// overhead (bits/second).
  double networkReservationBps(const QosAttribute& attr) const;

  gara::Gara& gara() { return gara_; }

  // --- control-plane resilience -------------------------------------------

  /// Journals every QoS intent (attrPut/release) so a restarted agent can
  /// re-issue them. The journal must outlive the agent.
  void attachJournal(resil::StateJournal* journal) { journal_ = journal; }

  /// Lease stamped on every reservation this agent requests (zero =
  /// unleased); set by the resilience wiring alongside the LeaseManager.
  void setReservationLease(sim::Duration lease) {
    reservation_lease_ = lease;
  }

  /// Simulated crash: the agent forgets all per-communicator request
  /// state. Every in-flight apply/recover coroutine and armed failure
  /// watcher is superseded (their captured generations become stale), but
  /// the object stays alive — workload coroutines suspended in
  /// awaitSettled keep their Conditions and simply wait for the restarted
  /// agent to re-grant. The keyval registration also survives: it is the
  /// agent's identity on the MPI side.
  void crash();

  /// Restart half of crash-recovery: re-issues every journal-live QoS
  /// intent as a fresh attrPut through the normal request path. The
  /// resolver maps an intent back to its communicator (nullptr = the
  /// communicator no longer exists; the intent is skipped and counted
  /// under "resil.reissue_skipped"). Returns the number re-issued.
  using CommResolver =
      std::function<mpi::Comm*(std::int32_t context, int world_rank)>;
  int reissueLiveIntents(const resil::StateJournal& journal,
                         const CommResolver& resolver);

  /// Wires agent-level QoS events into the observability layer: counters
  /// for requests/grants/denials/retries/degrades/re-escalations plus one
  /// trace event per outcome (category "qos", id = communicator context).
  /// Either pointer may be null; both must outlive the agent.
  void attachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceBuffer* trace);

  /// Invariant hook: fired synchronously on every request-state
  /// transition (from != to), with the communicator context as id. Chaos
  /// monitors validate each edge against qosTransitionLegal(). Pass an
  /// empty function to detach; the observer must outlive the agent or be
  /// detached before it dies.
  using StateObserver = std::function<void(
      std::int32_t context, QosRequestState from, QosRequestState to)>;
  void setStateObserver(StateObserver observer) {
    state_observer_ = std::move(observer);
  }

 private:
  using StatusKey = std::pair<std::int32_t, int>;  // (context, world rank)
  static StatusKey keyOf(const mpi::Comm& comm);

  void onPut(mpi::Comm& comm, void* value);
  /// `generation` is captured at put time: a later re-put supersedes this
  /// request even if it is still establishing flows.
  sim::Task<> applyQos(mpi::Comm comm, QosAttribute attr,
                       std::uint64_t generation);
  std::string resourceFor(const net::FlowKey& flow) const;

  /// One co-reservation attempt over the communicator's outgoing flows.
  gara::Gara::CoOutcome tryReserve(const std::vector<net::FlowKey>& flows,
                                   const QosAttribute& attr);
  /// Records a grant: stores the handles, arms failure watchers on each,
  /// and wakes settled waiters.
  void grant(const mpi::Comm& comm, const QosAttribute& attr,
             std::uint64_t generation,
             std::vector<gara::ReservationHandle> handles);
  /// Reacts to a kFailed transition of a held reservation: tears down the
  /// sibling legs, then degrades, or retries when recovery is on.
  void onReservationFailed(const mpi::Comm& comm, const QosAttribute& attr,
                           std::uint64_t generation,
                           const std::string& reason);
  /// The retry/degrade/re-escalate loop (spawned as a process).
  sim::Task<> recover(mpi::Comm comm, QosAttribute attr,
                      std::uint64_t generation);
  /// The single choke point for request-state writes: updates the status
  /// and fires the state observer. Every transition in the agent goes
  /// through here so the observer sees the complete edge history.
  void setState(const StatusKey& key, QosRequestState next);
  void notifySettled(const StatusKey& key);
  bool settled(const StatusKey& key) const;
  void countEvent(const char* counter);
  void traceEvent(const char* event, std::uint64_t id, double value,
                  const std::string& detail);

  mpi::World& world_;
  gara::Gara& gara_;
  Config config_;
  mpi::Keyval keyval_;
  std::map<StatusKey, QosStatus> statuses_;
  std::map<StatusKey, std::unique_ptr<sim::Condition>> settled_;
  std::map<StatusKey, std::uint64_t> generations_;
  resil::StateJournal* journal_ = nullptr;
  sim::Duration reservation_lease_ = sim::Duration::zero();
  /// Attribute storage for re-issued intents: attrPut records the pointer
  /// on the communicator, so it must stay stable per (context, rank).
  std::map<StatusKey, QosAttribute> reissued_attrs_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  StateObserver state_observer_;
};

}  // namespace mgq::gq
