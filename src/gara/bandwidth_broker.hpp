// Bandwidth broker: domain-level admission control (paper §2: "admission
// control is performed not by the router but by an external QoS system,
// usually referred to as a bandwidth broker").
//
// In a DS domain, enforcement (classify/mark/police) happens only at the
// edge, but admission must account for *every* link a premium flow
// crosses — otherwise two flows entering at different edges could
// together oversubscribe a shared interior link. The broker models this
// with one enforcing resource (the edge) plus accounting-only resources
// (interior links) per path, and admits a path request all-or-nothing
// through GARA's co-reservation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gara/gara.hpp"

namespace mgq::gara {

/// Accounting-only manager for an interior DS link: participates in
/// admission (slot table) but installs nothing — interior routers trust
/// the edge marking.
class LinkAccountingManager : public ResourceManager {
 public:
  explicit LinkAccountingManager(double premium_capacity_bps)
      : ResourceManager(premium_capacity_bps) {}

  std::string validate(const ReservationRequest& request) const override {
    return request.amount > 0.0 ? std::string{}
                                : "reservation needs amount > 0";
  }
  void enforce(Reservation&) override {}
  void release(Reservation&) override {}
};

class BandwidthBroker {
 public:
  explicit BandwidthBroker(Gara& gara) : gara_(&gara) {}

  /// Defines a named path as an ordered list of GARA resource names; the
  /// first is the enforcing edge, the rest are accounting-only interior
  /// links. All names must already be registered with GARA.
  void definePath(const std::string& name,
                  std::vector<std::string> resources);

  bool hasPath(const std::string& name) const {
    return paths_.count(name) != 0;
  }
  std::vector<std::string> pathNames() const;

  /// Result of a path reservation: one handle per traversed resource,
  /// cancelled/modified as a unit.
  struct PathReservation {
    std::vector<ReservationHandle> handles;
    std::string error;
    explicit operator bool() const { return error.empty(); }
  };

  /// Requests `request.amount` along every link of the path,
  /// all-or-nothing.
  PathReservation requestPath(const std::string& path,
                              const ReservationRequest& request);

  /// Modifies every leg to `new_amount`; on any failure the previous
  /// amounts are restored and false is returned.
  bool modify(PathReservation& reservation, double new_amount);

 private:
  Gara* gara_;
  std::map<std::string, std::vector<std::string>> paths_;
};

}  // namespace mgq::gara
