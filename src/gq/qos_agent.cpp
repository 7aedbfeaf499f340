#include "gq/qos_agent.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace mgq::gq {

namespace {
/// Overhead multiplier when max_message_size is unknown: the paper's
/// measured value (§5.3).
constexpr double kDefaultOverhead = 1.06;
}  // namespace

const char* qosClassName(QosClass c) {
  switch (c) {
    case QosClass::kBestEffort:
      return "best-effort";
    case QosClass::kLowLatency:
      return "low-latency";
    case QosClass::kPremium:
      return "premium";
  }
  return "?";
}

const char* qosRequestStateName(QosRequestState s) {
  switch (s) {
    case QosRequestState::kNone:
      return "none";
    case QosRequestState::kPending:
      return "pending";
    case QosRequestState::kGranted:
      return "granted";
    case QosRequestState::kDenied:
      return "denied";
    case QosRequestState::kReleased:
      return "released";
    case QosRequestState::kRecovering:
      return "recovering";
    case QosRequestState::kDegraded:
      return "degraded";
  }
  return "?";
}

bool qosTransitionLegal(QosRequestState from, QosRequestState to) {
  using S = QosRequestState;
  if (from == to) return false;  // self-loops are filtered, never observed
  switch (to) {
    case S::kNone:
      return false;  // initial state only
    case S::kPending:
      // A put: either the first request on the communicator or a re-put
      // (which releases the previous request first).
      return from == S::kNone || from == S::kReleased;
    case S::kGranted:
      // Initial grant, recovery, re-escalation, or a best-effort put
      // (granted immediately, nothing to reserve).
      return from == S::kPending || from == S::kRecovering ||
             from == S::kDegraded || from == S::kNone || from == S::kReleased;
    case S::kDenied:
      // A refused request with recovery off; a lost one degrades.
      return from == S::kPending;
    case S::kReleased:
      return true;  // release() applies from any state
    case S::kRecovering:
      // A lost reservation, or an initial denial entering the retry loop.
      return from == S::kGranted || from == S::kPending;
    case S::kDegraded:
      // Retries exhausted, or an immediate degrade when recovery is off.
      return from == S::kRecovering || from == S::kGranted;
  }
  return false;
}

double protocolOverheadFactor(int max_message_size, int mss) {
  if (max_message_size <= 0) return kDefaultOverhead;
  const double payload =
      static_cast<double>(max_message_size) + mpi::WireHeader::kBytes;
  const double segments = std::ceil(payload / mss);
  const double wire =
      payload + segments * (net::kIpHeaderBytes + net::kTcpHeaderBytes);
  // Never below 3% — retransmissions and ACK-clock jitter always cost a
  // little; the paper's empirical value was 6%.
  return std::max(wire / max_message_size, 1.03);
}

QosAgent::QosAgent(mpi::World& world, gara::Gara& gara, Config config)
    : world_(world), gara_(gara), config_(std::move(config)) {
  keyval_ = world_.attributes().create();
  world_.attributes().setPutHook(
      keyval_, [this](mpi::Comm& comm, mpi::Keyval, void* value) {
        onPut(comm, value);
      });
}

void QosAgent::attachObservability(obs::MetricsRegistry* metrics,
                                   obs::TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void QosAgent::countEvent(const char* counter) {
  if (metrics_ != nullptr) metrics_->counter(counter).inc();
}

void QosAgent::traceEvent(const char* event, std::uint64_t id, double value,
                          const std::string& detail) {
  if (trace_ != nullptr) trace_->record("qos", event, id, value, detail);
}

QosAgent::StatusKey QosAgent::keyOf(const mpi::Comm& comm) {
  return {comm.context(), comm.worldRank(comm.rank())};
}

void QosAgent::setState(const StatusKey& key, QosRequestState next) {
  auto& status = statuses_[key];
  const auto from = status.state;
  if (from == next) return;
  status.state = next;
  if (state_observer_) state_observer_(key.first, from, next);
}

QosStatus QosAgent::status(const mpi::Comm& comm) const {
  const auto it = statuses_.find(keyOf(comm));
  return it == statuses_.end() ? QosStatus{} : it->second;
}

double QosAgent::networkReservationBps(const QosAttribute& attr) const {
  const double overhead = attr.max_message_size > 0
                              ? protocolOverheadFactor(attr.max_message_size)
                              : kDefaultOverhead;
  return attr.bandwidth_kbps * 1000.0 * overhead;
}

std::string QosAgent::resourceFor(const net::FlowKey& flow) const {
  if (config_.resource_resolver) {
    auto name = config_.resource_resolver(flow);
    if (!name.empty()) return name;
  }
  return config_.default_network_resource;
}

void QosAgent::onPut(mpi::Comm& comm, void* value) {
  const auto key = keyOf(comm);
  const auto generation = ++generations_[key];
  release(comm);  // a re-put replaces the previous request

  if (value == nullptr) return;
  const auto attr = *static_cast<const QosAttribute*>(value);  // snapshot
  if (journal_ != nullptr) {
    journal_->recordQosPut(key.first, key.second,
                           static_cast<std::uint32_t>(attr.qosclass),
                           attr.bandwidth_kbps,
                           attr.max_message_size > 0
                               ? static_cast<std::size_t>(attr.max_message_size)
                               : 0,
                           attr.bucket_divisor);
  }
  countEvent("qos.requests");
  traceEvent("requested", static_cast<std::uint64_t>(comm.context()),
             attr.bandwidth_kbps, qosClassName(attr.qosclass));
  auto& status = statuses_[key];
  status.error.clear();
  status.reservations.clear();
  status.recovery_attempts = 0;
  if (attr.qosclass == QosClass::kBestEffort) {
    setState(key, QosRequestState::kGranted);
    if (const auto it = settled_.find(key); it != settled_.end()) {
      it->second->notifyAll();
    }
    return;
  }
  setState(key, QosRequestState::kPending);
  // The put itself is synchronous (MPI semantics); flow establishment and
  // reservation proceed as a simulated process. attrGet / status() report
  // the outcome, exactly as the paper describes. The generation must be
  // bound here — the coroutine body runs later, when a re-put may already
  // have superseded this request.
  world_.simulator().spawn(applyQos(comm, attr, generation));
}

gara::Gara::CoOutcome QosAgent::tryReserve(
    const std::vector<net::FlowKey>& flows, const QosAttribute& attr) {
  std::vector<gara::Gara::CoRequest> requests;
  requests.reserve(flows.size());
  for (const auto& flow : flows) {
    gara::ReservationRequest request;
    request.start = world_.simulator().now();
    request.amount = networkReservationBps(attr);
    request.lease = reservation_lease_;
    request.flow = net::FlowMatch::exact(flow);
    request.bucket_divisor = attr.bucket_divisor;
    if (attr.qosclass == QosClass::kPremium) {
      request.mark = net::Dscp::kExpedited;
      request.out_action = net::OutOfProfileAction::kDrop;
    } else {  // low-latency: elevated queue, no hard policing
      request.mark = net::Dscp::kLowLatency;
      request.out_action = net::OutOfProfileAction::kDemote;
    }
    requests.push_back({resourceFor(flow), request});
  }
  return gara_.coReserve(requests);
}

void QosAgent::grant(const mpi::Comm& comm, const QosAttribute& attr,
                     std::uint64_t generation,
                     std::vector<gara::ReservationHandle> handles) {
  const auto key = keyOf(comm);
  auto& status = statuses_[key];
  const auto id = static_cast<std::uint64_t>(comm.context());
  if (status.state == QosRequestState::kDegraded) {
    countEvent("qos.reescalated");
    traceEvent("re-escalated", id, attr.bandwidth_kbps, {});
  } else if (status.state == QosRequestState::kRecovering) {
    countEvent("qos.recovered");
    traceEvent("recovered", id, attr.bandwidth_kbps, {});
  } else {
    countEvent("qos.granted");
    traceEvent("granted", id, attr.bandwidth_kbps, {});
  }
  setState(key, QosRequestState::kGranted);
  status.error.clear();
  status.reservations = std::move(handles);
  // Watch every leg: losing any one of them mid-lifetime triggers the
  // recovery path for the whole communicator (all-or-nothing semantics).
  for (const auto& handle : status.reservations) {
    handle->onStateChange(
        [this, comm, attr, generation](gara::Reservation& r,
                                       gara::ReservationState,
                                       gara::ReservationState to) {
          if (to != gara::ReservationState::kFailed) return;
          onReservationFailed(comm, attr, generation, r.failureReason());
        });
  }
  notifySettled(key);
}

void QosAgent::onReservationFailed(const mpi::Comm& comm,
                                   const QosAttribute& attr,
                                   std::uint64_t generation,
                                   const std::string& reason) {
  const auto key = keyOf(comm);
  if (generations_[key] != generation) return;  // superseded request
  auto& status = statuses_[key];
  if (status.state != QosRequestState::kGranted) return;  // already handled
  MGQ_LOG(kWarn) << "QoS lost for context " << comm.context() << ": "
                 << reason;
  countEvent("qos.reservation_lost");
  traceEvent("lost", static_cast<std::uint64_t>(comm.context()),
             attr.bandwidth_kbps, reason);
  status.error = reason;
  // Tear down the surviving legs: a partially-enforced premium path only
  // polices the sender without protecting it (cancel is a no-op on the
  // failed leg itself).
  for (const auto& handle : status.reservations) gara_.cancel(handle);
  status.reservations.clear();

  if (!config_.recovery) {
    // Fall to best effort for good.
    setState(key, QosRequestState::kDegraded);
    countEvent("qos.degraded");
    traceEvent("degraded", static_cast<std::uint64_t>(comm.context()),
               attr.bandwidth_kbps, reason);
    notifySettled(key);
    return;
  }
  setState(key, QosRequestState::kRecovering);
  world_.simulator().spawn(recover(comm, attr, generation));
}

sim::Task<> QosAgent::recover(mpi::Comm comm, QosAttribute attr,
                              std::uint64_t generation) {
  const auto key = keyOf(comm);
  auto& sim = world_.simulator();
  int attempt = 0;
  for (;;) {
    sim::Duration backoff;
    if (attempt < kMaxRetries) {
      const double cap = kMaxBackoff.toSeconds();
      double seconds = kInitialBackoff.toSeconds();
      for (int i = 0; i < attempt && seconds < cap; ++i) {
        seconds *= kBackoffMultiplier;
      }
      backoff = sim::Duration::seconds(std::min(seconds, cap));
    } else {
      backoff = kReescalateInterval;  // degraded background probing
    }
    backoff = backoff * sim.rng().uniform(1.0 - kJitter, 1.0 + kJitter);
    co_await sim.delay(backoff);
    if (generations_[key] != generation) co_return;  // superseded re-put

    // Flows are re-resolved each attempt: connections persist, but a
    // rebuilt communicator topology must not be reserved stale.
    auto flows = co_await comm.establishOutgoingFlows();
    if (generations_[key] != generation) co_return;

    auto& status = statuses_[key];
    ++attempt;
    ++status.recovery_attempts;
    countEvent("qos.retries");
    traceEvent("retry", static_cast<std::uint64_t>(comm.context()),
               static_cast<double>(attempt), {});
    auto outcome = flows.empty() ? gara::Gara::CoOutcome{}
                                 : tryReserve(flows, attr);
    if (outcome) {
      MGQ_LOG(kInfo) << "QoS "
                     << (status.state == QosRequestState::kDegraded
                             ? "re-escalated"
                             : "recovered")
                     << " for context " << comm.context() << " after "
                     << attempt << " attempt(s)";
      grant(comm, attr, generation, std::move(outcome.handles));
      co_return;
    }
    status.error = outcome.error;
    if (attempt < kMaxRetries) continue;
    if (status.state != QosRequestState::kDegraded) {
      setState(key, QosRequestState::kDegraded);
      countEvent("qos.degraded");
      traceEvent("degraded", static_cast<std::uint64_t>(comm.context()),
                 attr.bandwidth_kbps, outcome.error);
      notifySettled(key);
      MGQ_LOG(kWarn) << "QoS degraded to best effort for context "
                     << comm.context() << ": " << outcome.error;
    }
  }
}

sim::Task<> QosAgent::applyQos(mpi::Comm comm, QosAttribute attr,
                               std::uint64_t generation) {
  const auto key = keyOf(comm);
  auto flows = co_await comm.establishOutgoingFlows();
  if (generations_[key] != generation) co_return;  // superseded re-put

  if (flows.empty()) {
    // All peers share this host; nothing to reserve on the network.
    setState(key, QosRequestState::kGranted);
    notifySettled(key);
    co_return;
  }

  auto outcome = tryReserve(flows, attr);
  if (outcome) {
    grant(comm, attr, generation, std::move(outcome.handles));
    co_return;
  }
  MGQ_LOG(kInfo) << "QoS request denied for context " << comm.context()
                 << ": " << outcome.error;
  countEvent("qos.denied");
  traceEvent("denied", static_cast<std::uint64_t>(comm.context()),
             attr.bandwidth_kbps, outcome.error);
  statuses_[key].error = outcome.error;
  if (config_.recovery) {
    // Initial denial also goes through the retry loop: capacity may free
    // up (another job's reservation expiring) moments later.
    setState(key, QosRequestState::kRecovering);
    world_.simulator().spawn(recover(std::move(comm), attr, generation));
    co_return;
  }
  setState(key, QosRequestState::kDenied);
  notifySettled(key);
}

void QosAgent::notifySettled(const StatusKey& key) {
  if (const auto it = settled_.find(key); it != settled_.end()) {
    it->second->notifyAll();
  }
}

bool QosAgent::settled(const StatusKey& key) const {
  const auto it = statuses_.find(key);
  return it != statuses_.end() &&
         it->second.state != QosRequestState::kPending &&
         it->second.state != QosRequestState::kRecovering;
}

sim::Task<> QosAgent::awaitSettled(const mpi::Comm& comm) {
  const auto key = keyOf(comm);
  auto [it, inserted] = settled_.try_emplace(key, nullptr);
  if (inserted) {
    it->second = std::make_unique<sim::Condition>(world_.simulator());
  }
  co_await awaitUntil(*it->second, [this, key] { return settled(key); });
}

void QosAgent::release(const mpi::Comm& comm) {
  const auto key = keyOf(comm);
  const auto it = statuses_.find(key);
  if (it == statuses_.end()) return;
  if (journal_ != nullptr) journal_->recordQosRelease(key.first, key.second);
  for (auto& handle : it->second.reservations) {
    gara_.cancel(handle);
  }
  it->second.reservations.clear();
  setState(key, QosRequestState::kReleased);
}

void QosAgent::crash() {
  // Supersede every in-flight coroutine and armed failure watcher: each
  // one compares its captured generation against this map before acting,
  // and bumping in place keeps the counters monotonic so a post-restart
  // re-put can never collide with a stale generation.
  for (auto& [key, generation] : generations_) ++generation;
  statuses_.clear();
  countEvent("qos.agent_crashes");
  traceEvent("agent_crashed", 0, 0.0, "per-communicator state dropped");
  MGQ_LOG(kWarn) << "QoS agent: simulated crash (all request state lost)";
}

int QosAgent::reissueLiveIntents(const resil::StateJournal& journal,
                                 const CommResolver& resolver) {
  int reissued = 0;
  for (const auto& intent : journal.liveIntents()) {
    auto* comm = resolver ? resolver(intent.context, intent.world_rank)
                          : nullptr;
    if (comm == nullptr) {
      countEvent("resil.reissue_skipped");
      traceEvent("reissue_skipped",
                 static_cast<std::uint64_t>(intent.context),
                 intent.bandwidth_kbps, "communicator not resolvable");
      continue;
    }
    QosAttribute attr;
    attr.qosclass = static_cast<QosClass>(intent.qos_class);
    attr.bandwidth_kbps = intent.bandwidth_kbps;
    attr.max_message_size = static_cast<int>(intent.max_message_size);
    attr.bucket_divisor = intent.bucket_divisor;
    // attrPut records the pointer on the communicator, so the attribute
    // needs a stable home for the communicator's lifetime.
    auto& stored =
        reissued_attrs_[{intent.context, intent.world_rank}] = attr;
    ++reissued;
    countEvent("resil.reissued_intents");
    traceEvent("reissued", static_cast<std::uint64_t>(intent.context),
               intent.bandwidth_kbps, qosClassName(attr.qosclass));
    comm->attrPut(keyval_, &stored);  // normal request path from here
  }
  return reissued;
}

}  // namespace mgq::gq
