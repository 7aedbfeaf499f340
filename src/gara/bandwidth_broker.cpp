#include "gara/bandwidth_broker.hpp"

#include <cassert>

#include "util/logging.hpp"

namespace mgq::gara {

void BandwidthBroker::definePath(const std::string& name,
                                 std::vector<std::string> resources) {
  assert(!resources.empty());
  for (const auto& resource : resources) {
    (void)resource;  // used by the assert below only
    assert(gara_->findManager(resource) != nullptr &&
           "path references an unregistered resource");
  }
  paths_[name] = std::move(resources);
}

std::vector<std::string> BandwidthBroker::pathNames() const {
  std::vector<std::string> names;
  names.reserve(paths_.size());
  for (const auto& [name, resources] : paths_) names.push_back(name);
  return names;
}

BandwidthBroker::PathReservation BandwidthBroker::requestPath(
    const std::string& path, const ReservationRequest& request) {
  PathReservation result;
  const auto it = paths_.find(path);
  if (it == paths_.end()) {
    result.error = "unknown path '" + path + "'";
    return result;
  }
  std::vector<Gara::CoRequest> legs;
  legs.reserve(it->second.size());
  for (const auto& resource : it->second) {
    legs.push_back({resource, request});
  }
  auto outcome = gara_->coReserve(legs);
  if (!outcome) {
    result.error = outcome.error;
    return result;
  }
  result.handles = std::move(outcome.handles);
  return result;
}

bool BandwidthBroker::modify(PathReservation& reservation,
                             double new_amount) {
  std::vector<double> previous;
  previous.reserve(reservation.handles.size());
  for (std::size_t i = 0; i < reservation.handles.size(); ++i) {
    auto& handle = reservation.handles[i];
    previous.push_back(handle->request().amount);
    if (!gara_->modify(handle, new_amount)) {
      // Roll back the legs already grown/shrunk. Restoring a previously
      // held amount normally cannot fail — but a leg may have expired or
      // been revoked underneath us while the forward pass ran. That leg
      // no longer holds capacity, so the path is broken: fail it loudly
      // instead of leaving a silently inconsistent reservation.
      for (std::size_t j = 0; j < i; ++j) {
        auto& leg = reservation.handles[j];
        if (gara_->modify(leg, previous[j])) continue;
        MGQ_LOG(kError) << "bandwidth broker: rollback of leg " << j
                        << " (reservation " << leg->id() << ") to "
                        << previous[j]
                        << " bps failed; failing the leg (state: "
                        << reservationStateName(leg->state()) << ")";
        gara_->fail(leg, "path modify rollback failed");
      }
      return false;
    }
  }
  return true;
}

}  // namespace mgq::gara
