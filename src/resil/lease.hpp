// Reservation leases (cs/0606076-style expiry/renewal semantics).
//
// Every leased reservation must be renewed by its holder within the lease
// window; when renewals stop — the holding control plane crashed or is
// partitioned — a guard timer hard-expires enforcement: the slot is freed
// and Gara::fail fires with reason "lease_expired". Renewals are driven by
// this manager on the holder's behalf; a simulated agent crash suspends
// them (the holder is gone), which is precisely what lets the rest of the
// system outlive its own controller instead of serving zombie
// reservations forever.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "gara/gara.hpp"
#include "sim/simulator.hpp"

namespace mgq::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace mgq::obs

namespace mgq::resil {

class LeaseManager {
 public:
  /// Renewals fire every duration * kRenewFraction (< 1, so a healthy
  /// holder always renews before expiry).
  static constexpr double kRenewFraction = 0.5;
  /// Slack past the deadline before the guard hard-expires — absorbs
  /// same-tick renewal/guard ordering.
  static constexpr sim::Duration kGrace = sim::Duration::millis(250);

  /// Subscribes to `gara`'s lifecycle events: admitted/adopted
  /// reservations with a lease start being tracked, terminal ones drop
  /// their lease. `default_duration` is the lease of reservations that do
  /// not carry their own `ReservationRequest::lease`; zero leaves those
  /// unleased. Construct before reservations are made and after the
  /// journal is attached (listeners fire in attach order).
  LeaseManager(sim::Simulator& sim, gara::Gara& gara,
               sim::Duration default_duration);
  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  void attachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceBuffer* trace);

  /// Holder crashed: stop extending deadlines. Leases then hard-expire
  /// after at most duration + kGrace.
  void suspendRenewals();
  /// Holder restarted: every surviving lease is renewed immediately and
  /// the periodic renewals resume.
  void resumeRenewals();
  bool suspended() const { return suspended_; }

  struct LeaseInfo {
    gara::ReservationHandle handle;
    sim::TimePoint deadline;
    sim::Duration duration;
  };
  /// Current leases sorted by reservation id — the Reconciler's handle
  /// registry (lease-held handles survive a Gara crash) and the chaos
  /// lease-safety invariant's view.
  std::vector<LeaseInfo> leases() const;
  std::size_t leaseCount() const { return leases_.size(); }

 private:
  struct Lease {
    gara::ReservationHandle handle;
    sim::TimePoint deadline;
    sim::Duration duration;
  };

  void onLifecycle(const char* op, const gara::ReservationHandle& handle);
  void startLease(const gara::ReservationHandle& handle);
  void scheduleRenewal(std::uint64_t id, sim::Duration duration);
  void armGuard(std::uint64_t id, sim::TimePoint deadline);
  void count(const char* counter);

  sim::Simulator& sim_;
  gara::Gara& gara_;
  sim::Duration default_duration_;
  std::map<std::uint64_t, Lease> leases_;  // ordered: deterministic sweeps
  bool suspended_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace mgq::resil
