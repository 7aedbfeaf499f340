// Reservation objects and requests (paper §4.2).
//
// GARA exposes one uniform request shape for every resource type; the
// type-specific fields are interpreted by the resource manager the
// request is submitted to. A successful reserve() yields an opaque handle
// through which the reservation can be modified, cancelled, monitored by
// polling, or watched through state-change callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu_scheduler.hpp"
#include "gara/slot_table.hpp"
#include "net/classifier.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mgq::net {
class Interface;
}

namespace mgq::gara {

enum class ReservationState {
  kPending,    // admitted, waiting for its start time (advance reservation)
  kActive,     // enforcement in place
  kExpired,    // duration elapsed; enforcement removed
  kCancelled,  // cancelled by the holder
  kFailed,     // enforcement lost mid-lifetime (link down, capacity revoked)
};

/// True for states a reservation can never leave (and holds nothing in).
inline bool isTerminal(ReservationState s) {
  return s == ReservationState::kExpired ||
         s == ReservationState::kCancelled || s == ReservationState::kFailed;
}

const char* reservationStateName(ReservationState s);

/// Uniform reservation request. `amount` is bits/second for network
/// managers and a CPU fraction (0..1) for CPU managers.
struct ReservationRequest {
  sim::TimePoint start;  // == now for immediate reservations
  sim::Duration duration = sim::Duration::infinite();
  double amount = 0.0;
  /// Lease duration for control-plane resilience: when non-zero (and a
  /// resil::LeaseManager is attached), the holder must renew within this
  /// window or enforcement is hard-expired with reason "lease_expired".
  /// Zero = unleased (legacy behaviour, or the lease manager's default).
  sim::Duration lease = sim::Duration::zero();

  // --- network-specific -------------------------------------------------
  net::FlowMatch flow;  // which packets the premium service applies to
  net::Dscp mark = net::Dscp::kExpedited;
  net::OutOfProfileAction out_action = net::OutOfProfileAction::kDrop;
  /// Token bucket depth = amount / divisor (paper §4.3; 40 = "normal",
  /// 4 = "large").
  double bucket_divisor = net::TokenBucket::kNormalDivisor;
  /// Override the manager's default attachment interface (rarely needed).
  net::Interface* attach = nullptr;

  // --- CPU-specific -----------------------------------------------------
  cpu::JobId cpu_job = 0;
};

class ResourceManager;

/// A granted reservation. Owned jointly by the caller (handle) and the
/// Gara core (timers); thread-free single-simulator lifetime.
class Reservation {
 public:
  using StateCallback = std::function<void(Reservation&, ReservationState,
                                           ReservationState)>;

  Reservation(std::uint64_t id, ReservationRequest request,
              ResourceManager& manager, SlotId slot)
      : id_(id), request_(request), manager_(&manager), slot_(slot) {}

  std::uint64_t id() const { return id_; }
  ReservationState state() const { return state_; }
  /// Why the reservation entered kFailed (empty otherwise).
  const std::string& failureReason() const { return failure_reason_; }
  const ReservationRequest& request() const { return request_; }
  ResourceManager& manager() { return *manager_; }
  SlotId slot() const { return slot_; }

  /// Registers a callback fired on every state transition.
  void onStateChange(StateCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

  /// Used by Gara/managers; library users never call this.
  void transition(ReservationState next);

  // Enforcement bookkeeping used by managers.
  std::uint64_t enforcement_rule_id = 0;
  std::shared_ptr<net::TokenBucket> bucket;

 private:
  std::uint64_t id_;
  ReservationRequest request_;
  ResourceManager* manager_;
  SlotId slot_;
  ReservationState state_ = ReservationState::kPending;
  std::string failure_reason_;
  std::vector<StateCallback> callbacks_;

  friend class Gara;
  void updateRequest(const ReservationRequest& r) { request_ = r; }
};

using ReservationHandle = std::shared_ptr<Reservation>;

/// Result of a reserve call: either a handle or a rejection reason.
struct ReserveOutcome {
  ReservationHandle handle;
  std::string error;
  explicit operator bool() const { return handle != nullptr; }
};

}  // namespace mgq::gara
