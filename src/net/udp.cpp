#include "net/udp.hpp"

#include <algorithm>
#include <cassert>

namespace mgq::net {

UdpSocket::UdpSocket(Host& host, PortId port) : host_(host), port_(port) {
  if (port_ == 0) port_ = host_.allocateEphemeralPort(Protocol::kUdp);
  const bool bound = host_.bind(Protocol::kUdp, port_, this);
  assert(bound && "UDP port already in use");
  (void)bound;
}

UdpSocket::~UdpSocket() { host_.unbind(Protocol::kUdp, port_); }

void UdpSocket::sendTo(NodeId dst, PortId dst_port,
                       std::int32_t payload_bytes) {
  ++datagrams_sent_;
  std::int32_t remaining = payload_bytes;
  while (remaining > 0) {
    const std::int32_t chunk = std::min(remaining, kMtuPayload);
    Packet p;
    p.flow = FlowKey{host_.id(), dst, port_, dst_port, Protocol::kUdp};
    p.size_bytes = chunk + kIpHeaderBytes + kUdpHeaderBytes;
    p.header = UdpHeader{next_datagram_id_};
    host_.sendPacket(std::move(p));
    remaining -= chunk;
  }
  ++next_datagram_id_;
}

void UdpSocket::onPacket(Packet p) {
  ++packets_received_;
  bytes_received_ += p.size_bytes - kIpHeaderBytes - kUdpHeaderBytes;
  if (receive_cb_) receive_cb_(p);
}

UdpTrafficGenerator::UdpTrafficGenerator(Host& src, NodeId dst,
                                         PortId dst_port,
                                         const Config& config)
    : src_(src), socket_(src), dst_(dst), dst_port_(dst_port),
      config_(config) {
  assert(config_.rate_bps > 0.0);
  assert(config_.on_fraction > 0.0 && config_.on_fraction <= 1.0);
}

void UdpTrafficGenerator::start() {
  if (running_) return;
  running_ = true;
  src_.simulator().spawn(run());
}

sim::Task<> UdpTrafficGenerator::run() {
  auto& sim = src_.simulator();
  // Within each period, send the period's byte budget as a paced burst
  // occupying `on_fraction` of the period, then stay silent.
  const double period_s = config_.period.toSeconds();
  for (;;) {
    if (!running_) co_return;
    const double bytes_per_period = config_.rate_bps * period_s / 8.0;
    const auto datagrams = static_cast<std::int64_t>(
        bytes_per_period / config_.datagram_bytes + 0.5);
    if (datagrams == 0) {
      co_await sim.delay(config_.period);
      continue;
    }
    const auto gap =
        sim::Duration::seconds(period_s * config_.on_fraction /
                               static_cast<double>(datagrams));
    for (std::int64_t i = 0; i < datagrams && running_; ++i) {
      socket_.sendTo(dst_, dst_port_, config_.datagram_bytes);
      co_await sim.delay(gap);
    }
    const auto off =
        sim::Duration::seconds(period_s * (1.0 - config_.on_fraction));
    if (off > sim::Duration::zero()) co_await sim.delay(off);
  }
}

}  // namespace mgq::net
