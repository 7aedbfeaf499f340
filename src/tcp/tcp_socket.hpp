// TCP over the packet simulator: a NewReno sender and an in-order
// receiver behind a coroutine-friendly socket API.
//
// Implemented behaviour (what the paper's results depend on):
//  * three-way handshake with SYN retransmission;
//  * MSS segmentation, sliding window bounded by min(cwnd, peer window);
//  * slow start / congestion avoidance (RFC 5681), fast retransmit on
//    three duplicate ACKs, NewReno partial-ACK recovery (RFC 6582);
//  * retransmission timeout with Jacobson RTT estimation, Karn's
//    algorithm, exponential backoff, go-back-N resend;
//  * receiver out-of-order reassembly, advertised-window flow control,
//    window updates on application drain, persist probes against zero
//    windows, optional delayed ACKs;
//  * FIN/EOF teardown.
//
// Payload bytes are carried end to end, so tests can assert exact stream
// integrity under arbitrary loss. Bulk helpers generate a deterministic
// byte pattern (byte k of the stream = k & 0xff) that the receiver can
// verify without the application materializing gigabytes. The pattern
// travels as tagged buffers (net/buffer.hpp): no end writes, hashes or
// compares those bytes one by one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "sim/channel.hpp"
#include "sim/condition.hpp"
#include "sim/task.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/stream_ring.hpp"
#include "tcp/tcp_config.hpp"

namespace mgq::tcp {

class TcpListener;

/// Thrown when connect() exhausts its SYN retries.
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TcpSocket : public net::PacketReceiver {
 public:
  /// Active open: binds an ephemeral port on `host`, performs the
  /// handshake, and resolves once established.
  static sim::Task<std::unique_ptr<TcpSocket>> connect(
      net::Host& host, net::NodeId dst, net::PortId dst_port,
      TcpConfig config = {});

  ~TcpSocket() override;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // --- sending -----------------------------------------------------------
  /// Copies `data` into the send buffer, suspending while it is full.
  sim::Task<> send(std::span<const std::uint8_t> data);
  /// Sends `n` pattern bytes (stream byte k = k & 0xff) without the app
  /// materializing them.
  sim::Task<> sendBulk(std::int64_t n);
  /// Suspends until every byte accepted so far has been acknowledged.
  sim::Task<> flush();

  // --- receiving ---------------------------------------------------------
  /// Delivers at least one byte (up to out.size()); returns 0 at EOF.
  sim::Task<std::size_t> recv(std::span<std::uint8_t> out);
  /// Fills `out` completely; throws std::runtime_error on premature EOF.
  sim::Task<> recvExactly(std::span<std::uint8_t> out);
  /// Consumes exactly `n` bytes, discarding them; verifies the bulk
  /// pattern when `verify_pattern`. Returns bytes actually consumed
  /// (short only at EOF).
  sim::Task<std::int64_t> drain(std::int64_t n, bool verify_pattern = false);

  /// Half-closes the sending direction (FIN after pending data).
  void close();

  // --- introspection -----------------------------------------------------
  const TcpStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }
  const net::FlowKey& flowKey() const { return flow_; }
  sim::Simulator& simulator() { return sim_; }
  bool established() const { return state_ == State::kEstablished; }
  double cwndBytes() const { return cwnd_; }
  std::int64_t ssthreshBytes() const { return ssthresh_; }
  sim::Duration currentRto() const { return rtt_.rto(); }
  /// True once the connection was torn down by an observable reset (e.g.
  /// corrupted bytes reaching a verifying receiver). After a reset, recv()
  /// reports EOF, send() discards silently, and stats().resets counts it —
  /// no exception ever unwinds through the Simulator.
  bool resetDetected() const { return reset_; }
  std::int64_t bytesInFlight() const {
    return static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  }
  /// Bytes delivered to the application so far (throughput sampling).
  std::int64_t bytesDelivered() const { return stats_.bytes_delivered; }
  /// Bytes currently parked in the out-of-order reassembly buffer; the
  /// eviction policy keeps this at or below recv_buffer_bytes (invariant
  /// monitors assert it).
  std::int64_t outOfOrderBytes() const { return out_of_order_bytes_; }

  /// Mark applied to every packet this socket emits (premium flows are
  /// usually marked at the edge router instead; this supports host-side
  /// marking experiments).
  void setDscp(net::Dscp dscp) { dscp_ = dscp; }

  /// Trace hook: (time, stream sequence, payload bytes, is_retransmit) for
  /// every data segment — used for the paper's Figure 7 traces.
  std::function<void(sim::TimePoint, std::uint64_t, std::int32_t, bool)>
      on_segment_sent;

  void onPacket(net::Packet p) override;

 private:
  friend class TcpListener;

  enum class State { kClosed, kSynSent, kSynReceived, kEstablished };

  TcpSocket(net::Host& host, net::FlowKey flow, TcpConfig config,
            TcpListener* listener);

  // Sender path.
  bool sendAdmissionOpen();
  void trySend();
  /// Stamps the wire checksum and ships the finished header. Every
  /// emission funnels through here so no segment can leave unstamped.
  void emitPacket(net::TcpHeader h, std::int32_t size_bytes);
  void emitSegment(std::uint64_t seq, std::int32_t len, bool retransmit);
  void sendSyn(bool with_ack);
  void sendAck();
  void maybeSendFin();
  void armRto();
  void restartRto();
  void cancelRto();
  void onRtoExpired();
  void armPersist();
  void onPersistExpired();
  void processAck(std::uint64_t ack, std::uint32_t window, bool pure_ack);
  void enterFastRecovery();

  // Receiver path.
  void processData(std::uint64_t seq, const net::BufSlice& data);
  void processFin(std::uint64_t fin_seq);
  /// Retires `n` bytes delivered to the application from the receive
  /// ring, sending a window update when that reopens a starved window.
  void consumeFront(std::int64_t n);
  std::uint32_t advertisedWindow() const;
  void scheduleAckForData();

  void becomeEstablished();
  /// Observable connection teardown (stream corruption detected, or any
  /// future RST-like condition): counted, idempotent, wakes every waiter.
  void enterReset();

  net::Host& host_;
  net::FlowKey flow_;
  TcpConfig config_;
  TcpListener* listener_;  // non-null for accepted sockets
  std::weak_ptr<void> listener_alive_;  // guards listener_ on teardown
  sim::Simulator& sim_;
  State state_ = State::kClosed;
  net::Dscp dscp_ = net::Dscp::kBestEffort;
  bool reset_ = false;
  // The owning thread's payload pool, cached for the send-admission
  // pressure gate (sockets live and die on their Simulator's thread).
  net::BufferPool* pool_ = &net::BufferPool::local();

  // --- sender state (sequence space: SYN = 0, first data byte = 1) ------
  StreamRing send_buf_;  // front corresponds to snd_una_
  std::uint64_t snd_una_ = 1;
  std::uint64_t snd_nxt_ = 1;
  std::uint64_t max_seq_sent_ = 1;  // for Karn's algorithm
  double cwnd_ = 0;
  std::int64_t ssthresh_ = 0;
  std::uint32_t peer_window_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  RttEstimator rtt_;
  sim::EventId rto_event_ = 0;
  bool rto_armed_ = false;
  sim::EventId persist_event_ = 0;
  bool persist_armed_ = false;
  int syn_retries_ = 0;
  bool connect_failed_ = false;
  // RTT timing of one segment at a time (Karn).
  bool timing_active_ = false;
  std::uint64_t timed_seq_ = 0;
  sim::TimePoint timed_sent_at_;
  // FIN bookkeeping.
  bool fin_requested_ = false;
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;

  // --- receiver state ----------------------------------------------------
  std::uint64_t rcv_nxt_ = 1;
  StreamRing recv_buf_;
  // Segments beyond rcv_nxt_, held as zero-copy views of their arrival
  // buffers until the hole fills.
  std::map<std::uint64_t, net::BufSlice> out_of_order_;
  std::int64_t out_of_order_bytes_ = 0;
  bool peer_fin_ = false;          // FIN consumed; EOF after buffer drains
  bool fin_received_pending_ = false;  // FIN seen but data still missing
  std::uint64_t fin_seq_in_ = 0;
  int segments_since_ack_ = 0;
  sim::EventId delayed_ack_event_ = 0;
  bool delayed_ack_armed_ = false;
  std::uint64_t drain_cursor_ = 0;  // stream offset for pattern verify

  TcpStats stats_;
  sim::Condition established_cond_;
  sim::Condition send_space_cond_;
  sim::Condition recv_data_cond_;
  sim::Condition acked_cond_;
};

/// Passive open: owns a port, demultiplexes per-connection packets, and
/// yields established sockets through accept().
class TcpListener : public net::PacketReceiver {
 public:
  TcpListener(net::Host& host, net::PortId port, TcpConfig config = {});
  ~TcpListener() override;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Resolves with the next connection that completes its handshake.
  sim::Task<std::unique_ptr<TcpSocket>> accept();

  void onPacket(net::Packet p) override;

  net::PortId port() const { return port_; }

 private:
  friend class TcpSocket;
  void notifyEstablished(const net::FlowKey& flow);
  void forgetConnection(const net::FlowKey& flow);

  net::Host& host_;
  net::PortId port_;
  TcpConfig config_;
  // Handshaking connections owned here; moved out through accept().
  std::unordered_map<net::FlowKey, std::unique_ptr<TcpSocket>,
                     net::FlowKeyHash>
      pending_;
  // Established sockets not yet accepted.
  sim::Channel<std::unique_ptr<TcpSocket>> ready_;
  // Accepted sockets still receive through us: flow -> socket.
  std::unordered_map<net::FlowKey, TcpSocket*, net::FlowKeyHash> active_;
  bool shutting_down_ = false;
  // Sockets hold a weak reference; expired means the listener is gone.
  std::shared_ptr<bool> alive_token_ = std::make_shared<bool>(true);
};

}  // namespace mgq::tcp
