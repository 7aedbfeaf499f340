// Failure proxy around a resource manager (fault injection).
//
// Wraps a concrete manager and, per fault plan, (a) denies new requests
// while the manager is "unreachable" (an outage window), (b) denies the
// next N requests (transient flakiness), and (c) revokes currently-active
// reservations mid-lifetime (capacity preemption) by reporting failures
// upstream through the listener Gara installed.
//
// Register the *proxy* with Gara in place of the wrapped manager; the
// proxy runs admission on its own slot table (mirroring the wrapped
// capacity) and forwards all device programming to the wrapped manager.
#pragma once

#include <string>
#include <unordered_set>

#include "gara/resource_manager.hpp"
#include "sim/fault_injector.hpp"

namespace mgq::gara {

class FlakyResourceManager : public ResourceManager {
 public:
  explicit FlakyResourceManager(ResourceManager& inner)
      : ResourceManager(inner.slots().capacity()), inner_(&inner) {}

  std::string validate(const ReservationRequest& request) const override;
  void enforce(Reservation& reservation) override;
  void release(Reservation& reservation) override;
  void reconfigure(Reservation& reservation) override {
    inner_->reconfigure(reservation);
  }
  /// Heartbeat probes fail while the injected outage is active.
  bool reachable() const override { return !outage_; }
  std::vector<std::uint64_t> enforcedIds() const override;

  // --- fault controls ----------------------------------------------------
  /// While in outage, every validate() fails ("manager unreachable").
  void setOutage(bool outage) { outage_ = outage; }
  bool outage() const { return outage_; }

  /// Denies the next `n` requests, then recovers.
  void denyNext(int n) { deny_next_ = n; }

  /// Revokes every currently-active reservation: enforcement is torn down
  /// and each reservation transitions to kFailed with `reason`.
  void revokeActive(const std::string& reason);

  std::size_t activeCount() const { return active_.size(); }

  /// Fault-injector adapter: down = outage + revoke all, up = restore.
  sim::FaultTarget faultTarget();

 private:
  ResourceManager* inner_;
  bool outage_ = false;
  mutable int deny_next_ = 0;
  std::unordered_set<std::uint64_t> active_;
};

}  // namespace mgq::gara
