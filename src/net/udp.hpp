// UDP endpoints and the contention traffic generator used throughout the
// paper's evaluation ("a UDP traffic generator that is quite capable of
// overwhelming any TCP application that does not have a reservation").
#pragma once

#include <cstdint>
#include <functional>

#include "net/host.hpp"
#include "sim/task.hpp"

namespace mgq::net {

/// Connectionless datagram endpoint bound to a host port.
class UdpSocket : public PacketReceiver {
 public:
  /// Binds to `port` on `host` (0 picks an ephemeral port).
  UdpSocket(Host& host, PortId port = 0);
  ~UdpSocket() override;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Sends one datagram of `payload_bytes` to (dst, dst_port). Datagrams
  /// larger than the MTU payload are fragmented into MTU-sized packets.
  void sendTo(NodeId dst, PortId dst_port, std::int32_t payload_bytes);

  /// Receive callback: invoked with each arriving datagram packet.
  void onReceive(std::function<void(const Packet&)> cb) {
    receive_cb_ = std::move(cb);
  }

  void onPacket(Packet p) override;

  PortId port() const { return port_; }
  std::uint64_t datagramsSent() const { return datagrams_sent_; }
  std::uint64_t packetsReceived() const { return packets_received_; }
  std::int64_t bytesReceived() const { return bytes_received_; }

  static constexpr std::int32_t kMtuPayload = 1472;  // 1500 - IP - UDP

 private:
  Host& host_;
  PortId port_;
  std::function<void(const Packet&)> receive_cb_;
  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t next_datagram_id_ = 1;
  std::uint64_t packets_received_ = 0;
  std::int64_t bytes_received_ = 0;
};

/// Constant-bit-rate (or on/off bursty) UDP source. Runs as a simulated
/// process from start() until stop(); emits MTU-sized datagrams paced to
/// the target rate.
class UdpTrafficGenerator {
 public:
  struct Config {
    double rate_bps = 50e6;
    std::int32_t datagram_bytes = UdpSocket::kMtuPayload;
    /// On/off burst structure; on_fraction == 1 means pure CBR.
    double on_fraction = 1.0;
    sim::Duration period = sim::Duration::millis(100);
  };

  UdpTrafficGenerator(Host& src, NodeId dst, PortId dst_port,
                      const Config& config);

  /// Starts emitting at the current simulated time.
  void start();
  /// Stops after the current datagram.
  void stop() { running_ = false; }
  bool running() const { return running_; }

  std::uint64_t datagramsSent() const { return socket_.datagramsSent(); }

 private:
  sim::Task<> run();

  Host& src_;
  UdpSocket socket_;
  NodeId dst_;
  PortId dst_port_;
  Config config_;
  bool running_ = false;
};

/// Simple sink that counts received UDP traffic on a well-known port.
class UdpSink {
 public:
  UdpSink(Host& host, PortId port) : socket_(host, port) {}
  std::int64_t bytesReceived() const { return socket_.bytesReceived(); }
  std::uint64_t packetsReceived() const { return socket_.packetsReceived(); }

 private:
  UdpSocket socket_;
};

}  // namespace mgq::net
