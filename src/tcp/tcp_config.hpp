// TCP tuning knobs and counters.
//
// Defaults model a paper-era well-tuned stack: 1460-byte MSS, 64 KB socket
// buffers (the paper notes 8 KB buffers cripple high-bandwidth flows —
// tests cover that), Reno/NewReno congestion control.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mgq::tcp {

struct TcpConfig {
  std::int32_t mss = 1460;
  std::int64_t send_buffer_bytes = 64 * 1024;
  std::int64_t recv_buffer_bytes = 64 * 1024;
  sim::Duration initial_rto = sim::Duration::millis(1000);
  sim::Duration min_rto = sim::Duration::millis(200);
  sim::Duration max_rto = sim::Duration::seconds(60.0);
  /// Delayed ACKs (one ACK per two segments, 40 ms cap). Off by default:
  /// the experiments use immediate ACKs.
  bool delayed_ack = false;
};

struct TcpStats {
  std::int64_t bytes_sent_app = 0;    // accepted from the application
  std::int64_t bytes_delivered = 0;   // handed to the receiving app
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;       // total retransmitted segments
  std::uint64_t fast_retransmits = 0;  // triple-dupack recoveries entered
  std::uint64_t timeouts = 0;          // RTO expirations
  // Adversarial-wire accounting (see DESIGN.md §14).
  std::uint64_t checksum_drops = 0;   // segments failing wire-checksum verify
  std::uint64_t stale_segments = 0;   // wholly below rcv_nxt (old retransmits)
  std::uint64_t ooo_duplicates = 0;   // exact-seq duplicate OOO arrivals
  std::uint64_t ooo_evictions = 0;    // OOO views evicted at the buffer bound
  std::uint64_t resets = 0;           // connection resets (stream corruption)
};

}  // namespace mgq::tcp
