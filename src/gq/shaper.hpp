// Application-level traffic shaping (paper §2 "shaping can be performed
// either in the router or in the application" and §5.4's proposed
// alternative to oversized token buckets: "incorporate traffic-shaping
// support into the MPICH-GQ implementation on the end-system").
//
// ShapedSocket wraps a TcpSocket and paces application writes with a
// token bucket sized to the *network* reservation, so bursts handed to
// TCP never exceed what the edge policer will accept — trading a little
// latency for zero policer drops.
#pragma once

#include <cstdint>

#include "net/token_bucket.hpp"
#include "sim/task.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::gq {

class ShapedSocket {
 public:
  /// Pace writes to `rate_bps` with bursts up to `burst_bytes`. The burst
  /// should not exceed the edge policer's bucket depth.
  ShapedSocket(tcp::TcpSocket& socket, double rate_bps,
               std::int64_t burst_bytes);

  sim::Task<> sendBulk(std::int64_t bytes);

  /// Re-pace (e.g. after a reservation modify).
  void configure(double rate_bps, std::int64_t burst_bytes);

  tcp::TcpSocket& socket() { return socket_; }
  double rateBps() const { return bucket_.rateBps(); }

 private:
  /// Waits until `bytes` conform, then consumes them.
  sim::Task<> conform(std::int64_t bytes);

  tcp::TcpSocket& socket_;
  net::TokenBucket bucket_;
};

}  // namespace mgq::gq
