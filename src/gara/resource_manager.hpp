// Resource managers: the pluggable enforcement backends of GARA
// (paper §4.2: "only certain elements of this resource manager need to be
// replaced to instantiate a new resource interface").
//
// A manager owns a slot table (admission) and knows how to program its
// device when a reservation activates: the DS network manager installs a
// classifier rule plus token-bucket policer on an edge interface; the CPU
// manager applies a DSRT reservation.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "gara/reservation.hpp"
#include "gara/slot_table.hpp"
#include "net/node.hpp"

namespace mgq::gara {

class ResourceManager {
 public:
  explicit ResourceManager(double capacity) : slots_(capacity) {}
  virtual ~ResourceManager() = default;
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Validates manager-specific request fields; returns an error string
  /// (empty = OK). Called before slot-table admission.
  virtual std::string validate(const ReservationRequest& request) const = 0;

  /// Programs the device for an activating reservation.
  virtual void enforce(Reservation& reservation) = 0;

  /// Removes the device programming (expiry/cancel of an active
  /// reservation).
  virtual void release(Reservation& reservation) = 0;

  /// Re-programs the device after a successful modify of an active
  /// reservation. Default: release + enforce.
  virtual void reconfigure(Reservation& reservation) {
    release(reservation);
    enforce(reservation);
  }

  /// Heartbeat probe target: true when the manager's control channel
  /// would answer a probe right now. Fault proxies override this to model
  /// an unreachable per-domain manager.
  virtual bool reachable() const { return true; }

  /// Reservation ids with device enforcement currently installed, sorted.
  /// The Reconciler and the no-zombie-enforcement chaos invariant compare
  /// this against journal-live state; managers that do not track per-id
  /// enforcement report nothing (and are skipped by those sweeps).
  virtual std::vector<std::uint64_t> enforcedIds() const { return {}; }

  SlotTable& slots() { return slots_; }
  const SlotTable& slots() const { return slots_; }

  /// Upward notification channel (paper §4.2: monitoring/state-change
  /// callbacks). Gara installs a listener at registration; a manager calls
  /// reportFailure() when enforcement for an admitted reservation is lost
  /// (device went down, capacity revoked, preemption) and Gara moves the
  /// reservation to kFailed.
  using FailureListener =
      std::function<void(std::uint64_t reservation_id,
                         const std::string& reason)>;
  void setFailureListener(FailureListener listener) {
    failure_listener_ = std::move(listener);
  }

 protected:
  void reportFailure(std::uint64_t reservation_id,
                     const std::string& reason) {
    if (failure_listener_) failure_listener_(reservation_id, reason);
  }

 private:
  SlotTable slots_;
  FailureListener failure_listener_;
};

/// DS network manager: admission against the premium share of a bottleneck
/// link; enforcement = classifier + token-bucket marker/policer installed
/// on an edge interface's ingress policy (paper §5.1 mechanisms).
class NetworkResourceManager : public ResourceManager {
 public:
  /// `premium_capacity_bps` bounds total admitted premium bandwidth (EF
  /// must stay a bounded fraction of the link to avoid starving best
  /// effort); `default_edge` is where rules are installed unless the
  /// request overrides it.
  NetworkResourceManager(double premium_capacity_bps,
                         net::Interface& default_edge)
      : ResourceManager(premium_capacity_bps), edge_(&default_edge) {}

  std::string validate(const ReservationRequest& request) const override;
  void enforce(Reservation& reservation) override;
  void release(Reservation& reservation) override;
  std::vector<std::uint64_t> enforcedIds() const override;

  net::Interface& defaultEdge() { return *edge_; }

  /// Active reservations enforced on `iface` (fault-path bookkeeping).
  std::size_t activeOn(const net::Interface& iface) const;

 private:
  static net::Interface& attachPoint(Reservation& r,
                                     net::Interface& fallback) {
    return r.request().attach != nullptr ? *r.request().attach : fallback;
  }
  /// Subscribes (once per interface) to link-state changes so that an
  /// attachment going down fails every reservation enforced on it.
  void watch(net::Interface& iface);
  void onAttachmentDown(net::Interface& iface);

  net::Interface* edge_;
  std::unordered_map<std::uint64_t, net::Interface*> active_;
  std::set<const net::Interface*> watched_;
};

/// DSRT CPU manager: admission against the schedulable fraction;
/// enforcement = a soft real-time share pinned on the host scheduler.
class CpuResourceManager : public ResourceManager {
 public:
  explicit CpuResourceManager(cpu::CpuScheduler& cpu)
      : ResourceManager(cpu::CpuScheduler::maxReservable()), cpu_(&cpu) {}

  std::string validate(const ReservationRequest& request) const override;
  void enforce(Reservation& reservation) override;
  void release(Reservation& reservation) override;
  std::vector<std::uint64_t> enforcedIds() const override;

  cpu::CpuScheduler& scheduler() { return *cpu_; }

 private:
  cpu::CpuScheduler* cpu_;
  std::set<std::uint64_t> enforced_;
};

}  // namespace mgq::gara
