#include "net/network.hpp"

#include <cassert>
#include <deque>
#include <unordered_map>

namespace mgq::net {

Host& Network::addHost(const std::string& name) {
  auto host = std::make_unique<Host>(sim_, next_id_++, name);
  Host& ref = *host;
  nodes_.push_back(std::move(host));
  return ref;
}

Router& Network::addRouter(const std::string& name) {
  auto router = std::make_unique<Router>(sim_, next_id_++, name);
  Router& ref = *router;
  nodes_.push_back(std::move(router));
  return ref;
}

void Network::connect(Node& a, Node& b, const LinkConfig& config) {
  // Hosts use their pre-created NIC; routers grow a new port per link.
  auto pickInterface = [&](Node& n) -> Interface& {
    if (auto* host = dynamic_cast<Host*>(&n)) {
      assert(!host->nic().connected() && "host NIC already wired");
      return host->nic();
    }
    return n.addInterface(config.qdisc);
  };
  Interface& ia = pickInterface(a);
  Interface& ib = pickInterface(b);
  ia.connect(ib, config.rate_bps, config.delay);
  ib.connect(ia, config.rate_bps, config.delay);
  edges_.push_back(Edge{&a, &b, &ia});
  edges_.push_back(Edge{&b, &a, &ib});
}

void Network::computeRoutes() {
  // BFS from every node; for each destination host, install the first-hop
  // interface on every router along the way.
  for (const auto& dst_node : nodes_) {
    auto* dst_host = dynamic_cast<Host*>(dst_node.get());
    if (dst_host == nullptr) continue;
    // BFS backwards from the destination over the symmetric graph: for
    // each node, record which neighbour leads towards dst.
    std::unordered_map<Node*, Node*> next_hop;  // node -> neighbour
    std::deque<Node*> frontier{dst_host};
    next_hop[dst_host] = dst_host;
    while (!frontier.empty()) {
      Node* cur = frontier.front();
      frontier.pop_front();
      for (const auto& e : edges_) {
        if (e.to != cur) continue;
        if (next_hop.count(e.from) != 0) continue;
        next_hop[e.from] = cur;
        frontier.push_back(e.from);
      }
    }
    for (const auto& e : edges_) {
      auto* router = dynamic_cast<Router*>(e.from);
      if (router == nullptr) continue;
      const auto it = next_hop.find(e.from);
      if (it == next_hop.end()) continue;  // unreachable
      if (e.to == it->second) {
        router->addRoute(dst_host->id(), *e.out);
      }
    }
  }
}

GarnetTopology::GarnetTopology(sim::Simulator& sim) : network(sim) {
  premium_src = &network.addHost("premium-src");
  premium_dst = &network.addHost("premium-dst");
  competitive_src = &network.addHost("competitive-src");
  competitive_dst = &network.addHost("competitive-dst");
  ingress_router = &network.addRouter("r-ingress");
  core_router = &network.addRouter("r-core");
  egress_router = &network.addRouter("r-egress");

  LinkConfig edge;
  edge.rate_bps = kEdgeRateBps;
  edge.delay = kEdgeDelay;

  LinkConfig core;
  core.rate_bps = kCoreRateBps;
  core.delay = kCoreDelay;

  network.connect(*premium_src, *ingress_router, edge);
  network.connect(*competitive_src, *ingress_router, edge);
  network.connect(*ingress_router, *core_router, core);
  network.connect(*core_router, *egress_router, core);
  network.connect(*egress_router, *premium_dst, edge);
  network.connect(*egress_router, *competitive_dst, edge);
  network.computeRoutes();
}

Interface* GarnetTopology::ingressEdgeInterface() {
  // The ingress router's first interface is its side of the link to
  // premium_src (connect order above).
  return ingress_router->interfaces().front().get();
}

Interface* GarnetTopology::coreBottleneckInterface() {
  // Ingress router interfaces, in connect order: [0] towards premium_src,
  // [1] towards competitive_src, [2] towards the core router.
  return ingress_router->interfaces().at(2).get();
}

Interface* GarnetTopology::egressEdgeInterface() {
  // Egress router interfaces, in connect order: [0] towards core router,
  // [1] towards premium_dst, [2] towards competitive_dst.
  return egress_router->interfaces().at(1).get();
}

}  // namespace mgq::net
