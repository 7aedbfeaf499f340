// Router: forwards packets by destination node id through a static routing
// table (filled in by Network::computeRoutes). Ingress DS policies live on
// the interfaces; the router itself is diffserv-oblivious beyond the
// priority qdisc on its egress ports — interior routers treat marked
// aggregates, as in the DS architecture.
#pragma once

#include <vector>

#include "net/node.hpp"

namespace mgq::net {

struct RouterStats {
  std::uint64_t forwarded = 0;
  std::uint64_t no_route_drops = 0;
};

class Router : public Node {
 public:
  using Node::Node;

  /// Node ids are small sequential integers (Network hands them out from
  /// a counter), so the table is a flat vector indexed by destination —
  /// one bounds check and one load on the per-packet forwarding path.
  void addRoute(NodeId dst, Interface& out) {
    if (dst >= routes_.size()) routes_.resize(dst + 1, nullptr);
    routes_[dst] = &out;
  }
  void clearRoutes() { routes_.clear(); }

  void deliver(Packet&& p, Interface& in) override;

  const RouterStats& stats() const { return stats_; }

 private:
  std::vector<Interface*> routes_;  // dst node id -> egress, null = no route
  RouterStats stats_;
};

}  // namespace mgq::net
