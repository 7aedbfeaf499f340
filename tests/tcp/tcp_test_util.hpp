// Shared fixtures for TCP tests: a two-host network joined by a
// programmable forwarder that can drop packets (randomly or via a
// predicate) to exercise loss recovery.
#pragma once

#include <functional>
#include <memory>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::tcp::testing {

/// A two-port node that forwards everything from one side to the other,
/// optionally dropping packets via `should_drop`.
class LossyForwarder : public net::Node {
 public:
  using net::Node::Node;

  std::function<bool(const net::Packet&)> should_drop;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;

  void deliver(net::Packet&& p, net::Interface& in) override {
    if (should_drop && should_drop(p)) {
      ++dropped;
      return;
    }
    ++forwarded;
    // Two interfaces: forward out the other one.
    auto& out = (interfaces()[0].get() == &in) ? *interfaces()[1]
                                               : *interfaces()[0];
    out.send(std::move(p));
  }
};

/// Host A -- LossyForwarder -- Host B, symmetric links.
struct LossyPair {
  explicit LossyPair(sim::Simulator& sim, double rate_bps = 100e6,
                     sim::Duration delay = sim::Duration::micros(500))
      : net(sim) {
    a = &net.addHost("a");
    b = &net.addHost("b");
    forwarder = std::make_unique<LossyForwarder>(sim, 900, "gate");
    net::LinkConfig link;
    link.rate_bps = rate_bps;
    link.delay = delay;
    // Wire manually: hosts' NICs to two new forwarder ports.
    auto& fa = forwarder->addInterface(link.qdisc);
    auto& fb = forwarder->addInterface(link.qdisc);
    a->nic().connect(fa, link.rate_bps, link.delay);
    fa.connect(a->nic(), link.rate_bps, link.delay);
    b->nic().connect(fb, link.rate_bps, link.delay);
    fb.connect(b->nic(), link.rate_bps, link.delay);
  }

  net::Network net;
  net::Host* a;
  net::Host* b;
  std::unique_ptr<LossyForwarder> forwarder;
};

}  // namespace mgq::tcp::testing
