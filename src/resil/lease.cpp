#include "resil/lease.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgq::resil {

LeaseManager::LeaseManager(sim::Simulator& sim, gara::Gara& gara,
                           sim::Duration default_duration)
    : sim_(sim), gara_(gara), default_duration_(default_duration) {
  gara_.addLifecycleListener([this](const char* op,
                                    const gara::ReservationHandle& handle,
                                    const std::string&, const std::string&) {
    onLifecycle(op, handle);
  });
}

void LeaseManager::attachObservability(obs::MetricsRegistry* metrics,
                                       obs::TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void LeaseManager::count(const char* counter) {
  if (metrics_ != nullptr) metrics_->counter(counter).inc();
}

void LeaseManager::onLifecycle(const char* op,
                               const gara::ReservationHandle& handle) {
  const std::string name = op;
  if (name == "admitted" || name == "adopted") {
    startLease(handle);
  } else if (name == "expired" || name == "cancelled" || name == "failed") {
    leases_.erase(handle->id());
  }
}

void LeaseManager::startLease(const gara::ReservationHandle& handle) {
  auto duration = handle->request().lease;
  if (duration <= sim::Duration::zero()) duration = default_duration_;
  if (duration <= sim::Duration::zero()) return;  // unleased

  const auto id = handle->id();
  const bool fresh = leases_.count(id) == 0;
  auto& lease = leases_[id];
  lease.handle = handle;
  lease.duration = duration;
  lease.deadline = sim_.now() + duration;
  if (fresh) {
    count("resil.lease.granted");
    scheduleRenewal(id, duration);
    armGuard(id, lease.deadline);
  }
}

void LeaseManager::scheduleRenewal(std::uint64_t id, sim::Duration duration) {
  const auto tick = duration * kRenewFraction;
  sim_.schedule(tick, [this, id] {
    const auto it = leases_.find(id);
    if (it == leases_.end()) return;  // lease retired; stop ticking
    if (!suspended_) {
      it->second.deadline = sim_.now() + it->second.duration;
      count("resil.lease.renewals");
    }
    // Keep ticking even while suspended so renewals pick straight back up
    // when the holder returns.
    scheduleRenewal(id, it->second.duration);
  });
}

void LeaseManager::armGuard(std::uint64_t id, sim::TimePoint deadline) {
  sim_.scheduleAt(deadline + kGrace, [this, id] {
    const auto it = leases_.find(id);
    if (it == leases_.end()) return;
    if (sim_.now() < it->second.deadline + kGrace) {
      armGuard(id, it->second.deadline);  // renewed since; chase it
      return;
    }
    // Renewals stopped: hard-expire enforcement. Gara::fail retires the
    // reservation (frees the slot, releases device programming) and our
    // lifecycle listener erases the lease.
    auto handle = it->second.handle;
    count("resil.lease.expired");
    if (trace_ != nullptr) {
      trace_->record("resil", "lease_expired", handle->id(),
                     handle->request().amount,
                     "lease deadline passed without renewal");
    }
    gara_.fail(handle, "lease_expired");
    leases_.erase(id);  // in case the handle was already terminal
  });
}

void LeaseManager::suspendRenewals() { suspended_ = true; }

void LeaseManager::resumeRenewals() {
  suspended_ = false;
  for (auto& [id, lease] : leases_) {
    lease.deadline = sim_.now() + lease.duration;
    count("resil.lease.renewals");
  }
}

std::vector<LeaseManager::LeaseInfo> LeaseManager::leases() const {
  std::vector<LeaseInfo> out;
  out.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) {
    out.push_back({lease.handle, lease.deadline, lease.duration});
  }
  return out;  // std::map: sorted by reservation id
}

}  // namespace mgq::resil
