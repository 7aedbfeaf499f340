// Network: owns nodes, wires links, and computes static shortest-path
// routes. Also provides the GARNET testbed topology from the paper's
// Figure 4 (premium and competitive host pairs across a chain of three
// DS routers).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/router.hpp"
#include "sim/simulator.hpp"

namespace mgq::net {

struct LinkConfig {
  double rate_bps = 100e6;                        // Fast Ethernet default
  sim::Duration delay = sim::Duration::micros(500);  // one-way
  QdiscConfig qdisc;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  /// Unwinds all simulated processes first: their frames may own transport
  /// endpoints whose destructors touch hosts owned here.
  ~Network() { sim_.destroyProcesses(); }

  Host& addHost(const std::string& name);
  Router& addRouter(const std::string& name);

  /// Creates a bidirectional link between two nodes with symmetric
  /// configuration. New interfaces are added on both nodes.
  void connect(Node& a, Node& b, const LinkConfig& config);

  /// Fills every router's table with shortest-path (hop count) routes to
  /// every host. Call after all links are wired.
  void computeRoutes();

  sim::Simulator& simulator() { return sim_; }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

 private:
  struct Edge {
    Node* from;
    Node* to;
    Interface* out;  // from's interface towards to
  };

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Edge> edges_;
  NodeId next_id_ = 1;
};

/// The paper's laboratory testbed (Figure 4): a chain of three DS routers;
/// a premium source/destination pair and a competitive (contention)
/// source/destination pair attached at the ends. Edge links model switched
/// Fast Ethernet; the router chain models the OC3 core at the 55 Mb/s every
/// experiment uses. Every qdisc has the default QdiscConfig.
struct GarnetTopology {
  static constexpr double kEdgeRateBps = 100e6;  // host <-> edge router
  static constexpr double kCoreRateBps = 55e6;   // router <-> router
  static constexpr sim::Duration kEdgeDelay = sim::Duration::micros(100);
  static constexpr sim::Duration kCoreDelay = sim::Duration::micros(400);

  explicit GarnetTopology(sim::Simulator& sim);

  Network network;
  Host* premium_src = nullptr;
  Host* premium_dst = nullptr;
  Host* competitive_src = nullptr;
  Host* competitive_dst = nullptr;
  Router* ingress_router = nullptr;  // edge router near the sources
  Router* core_router = nullptr;
  Router* egress_router = nullptr;  // edge router near the destinations

  /// Interface on the ingress router receiving traffic from premium_src's
  /// edge link — where premium flows are policed/marked (paper §5.1).
  Interface* ingressEdgeInterface();
  /// Interface on the egress router receiving traffic from premium_dst —
  /// the edge for reverse-direction premium flows.
  Interface* egressEdgeInterface();
  /// The ingress router's interface onto the first core link — the
  /// congested egress qdisc where forward-direction queueing (and
  /// class-differentiated dropping) happens. This is the queue the
  /// observability sampler watches.
  Interface* coreBottleneckInterface();
};

}  // namespace mgq::net
