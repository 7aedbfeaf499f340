#include "tcp/tcp_socket.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace mgq::tcp {

namespace {
constexpr int kMaxSynRetries = 6;
/// Initial congestion window, in segments (RFC 2581 allowed 2).
constexpr std::int32_t kInitialCwndSegments = 2;
/// Initial slow-start threshold, bytes: "infinite".
constexpr std::int64_t kInitialSsthresh = INT64_MAX / 4;
/// Persist-probe interval while the peer advertises a zero window.
constexpr sim::Duration kPersistInterval = sim::Duration::millis(500);
constexpr std::int32_t kAckWireBytes =
    net::kIpHeaderBytes + net::kTcpHeaderBytes;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(net::Host& host, net::FlowKey flow, TcpConfig config,
                     TcpListener* listener)
    : host_(host),
      flow_(flow),
      config_(config),
      listener_(listener),
      sim_(host.simulator()),
      peer_window_(0),
      rtt_(config.initial_rto, config.min_rto, config.max_rto),
      established_cond_(sim_),
      send_space_cond_(sim_),
      recv_data_cond_(sim_),
      acked_cond_(sim_) {
  ssthresh_ = kInitialSsthresh;
  cwnd_ = static_cast<double>(kInitialCwndSegments) * config_.mss;
}

TcpSocket::~TcpSocket() {
  cancelRto();
  if (persist_armed_) sim_.cancel(persist_event_);
  if (delayed_ack_armed_) sim_.cancel(delayed_ack_event_);
  if (listener_ != nullptr) {
    // Pending (pre-established) sockets are destroyed *by* the listener's
    // own map erase; re-entering that erase would be undefined behaviour.
    // The alive token guards against the listener having been destroyed
    // before a socket still owned by a suspended coroutine frame.
    // A reset socket reads kClosed but is still registered in the
    // listener's active_ map: it must deregister all the same, or the
    // listener would keep routing the peer's retransmissions into a
    // freed socket.
    if ((established() || reset_) && !listener_alive_.expired()) {
      listener_->forgetConnection(flow_);
    }
  } else {
    host_.unbind(net::Protocol::kTcp, flow_.src_port);
  }
}

sim::Task<std::unique_ptr<TcpSocket>> TcpSocket::connect(net::Host& host,
                                                         net::NodeId dst,
                                                         net::PortId dst_port,
                                                         TcpConfig config) {
  const auto src_port = host.allocateEphemeralPort(net::Protocol::kTcp);
  net::FlowKey flow{host.id(), dst, src_port, dst_port, net::Protocol::kTcp};
  auto socket =
      std::unique_ptr<TcpSocket>(new TcpSocket(host, flow, config, nullptr));
  const bool bound = host.bind(net::Protocol::kTcp, src_port, socket.get());
  assert(bound && "ephemeral port collision");
  (void)bound;

  socket->state_ = State::kSynSent;
  socket->sendSyn(/*with_ack=*/false);
  socket->armRto();

  TcpSocket* raw = socket.get();
  co_await awaitUntil(raw->established_cond_, [raw] {
    return raw->established() || raw->connect_failed_;
  });
  if (raw->connect_failed_) {
    throw ConnectError("tcp connect: no response from " +
                       std::to_string(dst) + ":" + std::to_string(dst_port));
  }
  co_return socket;
}

// ---------------------------------------------------------------------------
// Application-facing send/recv
// ---------------------------------------------------------------------------

sim::Task<> TcpSocket::send(std::span<const std::uint8_t> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    co_await awaitUntil(send_space_cond_,
                        [this] { return sendAdmissionOpen(); });
    const auto free = config_.send_buffer_bytes - send_buf_.size();
    const auto chunk = std::min<std::int64_t>(
        free, static_cast<std::int64_t>(data.size() - offset));
    send_buf_.append(data.subspan(offset, static_cast<std::size_t>(chunk)));
    offset += static_cast<std::size_t>(chunk);
    stats_.bytes_sent_app += chunk;
    trySend();
  }
}

sim::Task<> TcpSocket::sendBulk(std::int64_t n) {
  std::int64_t remaining = n;
  while (remaining > 0) {
    co_await awaitUntil(send_space_cond_,
                        [this] { return sendAdmissionOpen(); });
    const auto free = config_.send_buffer_bytes - send_buf_.size();
    const auto chunk = std::min(free, remaining);
    send_buf_.appendPattern(stats_.bytes_sent_app, chunk);
    stats_.bytes_sent_app += chunk;
    remaining -= chunk;
    trySend();
  }
}

sim::Task<> TcpSocket::flush() {
  co_await awaitUntil(acked_cond_, [this] { return send_buf_.empty(); });
}

sim::Task<std::size_t> TcpSocket::recv(std::span<std::uint8_t> out) {
  co_await awaitUntil(recv_data_cond_,
                      [this] { return !recv_buf_.empty() || peer_fin_; });
  if (recv_buf_.empty()) co_return 0;  // EOF
  const auto n = static_cast<std::size_t>(std::min<std::int64_t>(
      static_cast<std::int64_t>(out.size()), recv_buf_.size()));
  recv_buf_.copyOut(0, out.first(n));
  consumeFront(static_cast<std::int64_t>(n));
  co_return n;
}

void TcpSocket::consumeFront(std::int64_t n) {
  const bool was_starved =
      advertisedWindow() < static_cast<std::uint32_t>(config_.mss);
  recv_buf_.popFront(n);
  stats_.bytes_delivered += n;
  drain_cursor_ += static_cast<std::uint64_t>(n);
  if (was_starved &&
      advertisedWindow() >= static_cast<std::uint32_t>(config_.mss)) {
    sendAck();  // window update so the sender does not stall
  }
}

sim::Task<> TcpSocket::recvExactly(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const auto n = co_await recv(out.subspan(got));
    if (n == 0) throw std::runtime_error("tcp recvExactly: EOF");
    got += n;
  }
}

sim::Task<std::int64_t> TcpSocket::drain(std::int64_t n, bool verify_pattern) {
  // Consumed straight from the receive ring in the pieces a recv() into a
  // 64 KB buffer would take, so window updates and a reset land on the
  // same events as an application reading the bytes.
  constexpr std::int64_t kMaxPiece = 64 * 1024;
  std::int64_t consumed = 0;
  while (consumed < n) {
    co_await awaitUntil(recv_data_cond_,
                        [this] { return !recv_buf_.empty() || peer_fin_; });
    if (recv_buf_.empty()) break;  // EOF
    const auto got = std::min({n - consumed, kMaxPiece, recv_buf_.size()});
    const bool intact =
        !verify_pattern || recv_buf_.frontIsPattern(got, drain_cursor_);
    consumeFront(got);
    if (!intact) {
      // Corrupted bytes reached the application: tear the connection
      // down as an observable, counted reset (stats().resets,
      // resetDetected()) instead of throwing — an exception here would
      // unwind through the Simulator's event loop. The corrupted piece
      // is not counted as consumed.
      enterReset();
      co_return consumed;
    }
    consumed += got;
  }
  co_return consumed;
}

void TcpSocket::close() {
  fin_requested_ = true;
  maybeSendFin();
}

// ---------------------------------------------------------------------------
// Sender machinery
// ---------------------------------------------------------------------------

// Send-buffer admission: full buffers always block; a pool at its
// live-bytes ceiling additionally holds *new* application data out of a
// non-empty ring — in-flight bytes both notify this condition when acked
// and release pooled chunks, so the wait resolves itself. An empty ring
// is admitted regardless: blocking it on pressure caused by other
// connections could never be woken by this connection's own progress.
bool TcpSocket::sendAdmissionOpen() {
  if (send_buf_.size() >= config_.send_buffer_bytes) return false;
  return !pool_->underPressure() || send_buf_.empty();
}

void TcpSocket::trySend() {
  if (state_ != State::kEstablished) return;
  const std::uint64_t end_of_data =
      snd_una_ + static_cast<std::uint64_t>(send_buf_.size());
  for (;;) {
    const auto flight = static_cast<std::int64_t>(snd_nxt_ - snd_una_);
    const auto wnd = std::min<std::int64_t>(
        static_cast<std::int64_t>(cwnd_), peer_window_);
    const auto unsent = static_cast<std::int64_t>(end_of_data - snd_nxt_);
    if (unsent <= 0) break;
    if (flight >= wnd) {
      // Blocked. If it is purely the peer's zero window, arm the persist
      // probe so a lost window update cannot deadlock the connection.
      if (peer_window_ == 0 && flight == 0) armPersist();
      break;
    }
    const auto len = static_cast<std::int32_t>(
        std::min<std::int64_t>({unsent, wnd - flight, config_.mss}));
    if (len <= 0) break;
    emitSegment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += static_cast<std::uint64_t>(len);
    armRto();
  }
  maybeSendFin();
}

void TcpSocket::emitPacket(net::TcpHeader h, std::int32_t size_bytes) {
  h.checksum = net::tcpWireChecksum(h);
  net::Packet p;
  p.flow = flow_;
  p.dscp = dscp_;
  p.size_bytes = size_bytes;
  p.header = std::move(h);
  host_.sendPacket(std::move(p));
}

void TcpSocket::emitSegment(std::uint64_t seq, std::int32_t len,
                            bool retransmit) {
  assert(seq >= snd_una_);
  net::TcpHeader h;
  h.seq = seq;
  h.is_ack = true;
  h.ack = rcv_nxt_;
  h.window = advertisedWindow();
  // Zero-copy reference into the send ring; retransmissions re-reference
  // the same pooled chunk.
  h.payload = send_buf_.slice(static_cast<std::int64_t>(seq - snd_una_), len);

  // Karn's algorithm: only time segments of entirely new data, one at a
  // time.
  const std::uint64_t seg_end = seq + static_cast<std::uint64_t>(len);
  if (!retransmit && !timing_active_ && seq >= max_seq_sent_) {
    timing_active_ = true;
    timed_seq_ = seg_end;
    timed_sent_at_ = sim_.now();
  }
  max_seq_sent_ = std::max(max_seq_sent_, seg_end);

  ++stats_.segments_sent;
  if (retransmit) ++stats_.retransmits;
  if (on_segment_sent) on_segment_sent(sim_.now(), seq, len, retransmit);
  emitPacket(std::move(h), len + kAckWireBytes);
}

void TcpSocket::sendSyn(bool with_ack) {
  net::TcpHeader h;
  h.seq = 0;
  h.syn = true;
  h.is_ack = with_ack;
  h.ack = with_ack ? 1 : 0;
  h.window = advertisedWindow();
  emitPacket(std::move(h), kAckWireBytes);
}

void TcpSocket::sendAck() {
  net::TcpHeader h;
  h.seq = snd_nxt_;
  h.is_ack = true;
  h.ack = rcv_nxt_;
  h.window = advertisedWindow();
  ++stats_.acks_sent;
  segments_since_ack_ = 0;
  if (delayed_ack_armed_) {
    sim_.cancel(delayed_ack_event_);
    delayed_ack_armed_ = false;
  }
  emitPacket(std::move(h), kAckWireBytes);
}

void TcpSocket::maybeSendFin() {
  if (!fin_requested_ || fin_sent_ || state_ != State::kEstablished) return;
  const std::uint64_t end_of_data =
      snd_una_ + static_cast<std::uint64_t>(send_buf_.size());
  if (snd_nxt_ != end_of_data) return;  // data still unsent
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  net::TcpHeader h;
  h.seq = fin_seq_;
  h.fin = true;
  h.is_ack = true;
  h.ack = rcv_nxt_;
  h.window = advertisedWindow();
  snd_nxt_ = fin_seq_ + 1;
  emitPacket(std::move(h), kAckWireBytes);
  armRto();
}

void TcpSocket::armRto() {
  if (rto_armed_) return;
  rto_armed_ = true;
  rto_event_ = sim_.schedule(rtt_.rto(), [this] {
    rto_armed_ = false;
    onRtoExpired();
  });
}

// Per-ACK timer restart: retarget the pending RTO event in place instead
// of cancel+schedule, so the ACK clock's churn neither destroys/rebuilds
// the callback nor strands a stale capture in the kernel's heap.
void TcpSocket::restartRto() {
  if (!rto_armed_) {
    armRto();
    return;
  }
  rto_event_ = sim_.reschedule(rto_event_, rtt_.rto());
  assert(rto_event_ != 0);  // rto_armed_ implies the event is pending
}

void TcpSocket::cancelRto() {
  if (rto_armed_) {
    sim_.cancel(rto_event_);
    rto_armed_ = false;
  }
}

void TcpSocket::onRtoExpired() {
  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (++syn_retries_ > kMaxSynRetries) {
      if (state_ == State::kSynSent) {
        connect_failed_ = true;
        established_cond_.notifyAll();
      } else if (listener_ != nullptr) {
        // Deferred removal: we cannot delete ourselves mid-callback.
        auto* listener = listener_;
        const auto flow = flow_;
        sim_.schedule(sim::Duration::zero(),
                      [listener, flow] { listener->forgetConnection(flow); });
      }
      state_ = State::kClosed;
      return;
    }
    sendSyn(/*with_ack=*/state_ == State::kSynReceived);
    rtt_.backoff();
    armRto();
    return;
  }

  if (snd_nxt_ == snd_una_) return;  // nothing outstanding

  ++stats_.timeouts;
  const auto flight = static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max<std::int64_t>(flight / 2, 2 * config_.mss);
  cwnd_ = config_.mss;  // loss window (RFC 5681)
  in_recovery_ = false;
  dup_acks_ = 0;
  timing_active_ = false;
  rtt_.backoff();
  // Go-back-N: rewind and resend from the first unacknowledged byte.
  snd_nxt_ = snd_una_;
  if (fin_sent_) fin_sent_ = false;  // FIN will be re-emitted after data
  if (!send_buf_.empty()) {
    const auto len = static_cast<std::int32_t>(
        std::min<std::int64_t>(send_buf_.size(), config_.mss));
    emitSegment(snd_nxt_, len, /*retransmit=*/true);
    snd_nxt_ += static_cast<std::uint64_t>(len);
  } else {
    maybeSendFin();  // FIN-only retransmission
  }
  armRto();
}

void TcpSocket::armPersist() {
  if (persist_armed_) return;
  persist_armed_ = true;
  persist_event_ = sim_.schedule(kPersistInterval, [this] {
    persist_armed_ = false;
    onPersistExpired();
  });
}

void TcpSocket::onPersistExpired() {
  if (state_ != State::kEstablished) return;
  if (peer_window_ > 0) {
    trySend();
    return;
  }
  // One-byte window probe beyond the advertised window; the RTO machinery
  // takes over (with backoff) if it is not accepted.
  const std::uint64_t end_of_data =
      snd_una_ + static_cast<std::uint64_t>(send_buf_.size());
  if (snd_nxt_ < end_of_data && snd_nxt_ == snd_una_) {
    emitSegment(snd_nxt_, 1, /*retransmit=*/false);
    snd_nxt_ += 1;
    armRto();
  }
}

void TcpSocket::enterFastRecovery() {
  ++stats_.fast_retransmits;
  const auto flight = static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max<std::int64_t>(flight / 2, 2 * config_.mss);
  recover_ = snd_nxt_;
  in_recovery_ = true;
  timing_active_ = false;  // Karn: retransmission invalidates the sample
  // Retransmit the first unacknowledged segment.
  if (!send_buf_.empty()) {
    const auto len = static_cast<std::int32_t>(
        std::min<std::int64_t>(send_buf_.size(), config_.mss));
    emitSegment(snd_una_, len, /*retransmit=*/true);
  } else if (fin_sent_ && snd_una_ <= fin_seq_) {
    fin_sent_ = false;
    maybeSendFin();
  }
  cwnd_ = static_cast<double>(ssthresh_ + 3 * config_.mss);
  armRto();
}

void TcpSocket::processAck(std::uint64_t ack, std::uint32_t window,
                           bool pure_ack) {
  const bool window_changed = window != peer_window_;
  peer_window_ = window;

  if (ack > snd_una_) {
    const auto acked = static_cast<std::int64_t>(ack - snd_una_);
    const auto data_acked = std::min(acked, send_buf_.size());
    send_buf_.popFront(data_acked);

    if (timing_active_ && ack >= timed_seq_) {
      rtt_.addSample(sim_.now() - timed_sent_at_);
      timing_active_ = false;
    }

    if (in_recovery_) {
      if (ack >= recover_) {
        // Full ACK: leave recovery, deflate to ssthresh.
        in_recovery_ = false;
        dup_acks_ = 0;
        cwnd_ = static_cast<double>(ssthresh_);
        snd_una_ = ack;
        if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
      } else {
        // Partial ACK (NewReno): retransmit the next hole, deflate by the
        // amount acked, re-inflate by one MSS.
        snd_una_ = ack;
        if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
        if (!send_buf_.empty()) {
          const auto len = static_cast<std::int32_t>(
              std::min<std::int64_t>(send_buf_.size(), config_.mss));
          emitSegment(snd_una_, len, /*retransmit=*/true);
        }
        cwnd_ = std::max<double>(cwnd_ - static_cast<double>(acked) +
                                     config_.mss,
                                 config_.mss);
      }
    } else {
      dup_acks_ = 0;
      snd_una_ = ack;
      if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
      if (cwnd_ < static_cast<double>(ssthresh_)) {
        // Slow start: one MSS per ACK (bounded by bytes acked, RFC 5681).
        cwnd_ += std::min<std::int64_t>(data_acked, config_.mss);
      } else {
        // Congestion avoidance: ~one MSS per RTT.
        cwnd_ += static_cast<double>(config_.mss) * config_.mss / cwnd_;
      }
    }

    if (snd_nxt_ > snd_una_) {
      restartRto();
    } else {
      cancelRto();
    }
    send_space_cond_.notifyAll();
    if (send_buf_.empty()) acked_cond_.notifyAll();
    trySend();
    return;
  }

  // Duplicate ACK detection (RFC 5681): pure ACK, nothing new acked,
  // outstanding data. Unlike classic implementations we do not require an
  // unchanged advertised window: out-of-order arrivals legitimately shrink
  // the window advertised with each duplicate ACK in this model.
  if (pure_ack && ack == snd_una_ && snd_nxt_ > snd_una_) {
    if (in_recovery_) {
      cwnd_ += config_.mss;  // inflation
      trySend();
    } else if (++dup_acks_ == 3) {
      enterFastRecovery();
    } else if (window_changed) {
      trySend();  // doubles as a window update
    }
    return;
  }

  // Window update or stale ACK: a freshly opened window may unblock us.
  if (window_changed) trySend();
}

// ---------------------------------------------------------------------------
// Receiver machinery
// ---------------------------------------------------------------------------

std::uint32_t TcpSocket::advertisedWindow() const {
  const auto used = recv_buf_.size() + out_of_order_bytes_;
  return static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, config_.recv_buffer_bytes - used));
}

void TcpSocket::scheduleAckForData() {
  if (!config_.delayed_ack) {
    sendAck();
    return;
  }
  if (++segments_since_ack_ >= 2) {
    sendAck();
    return;
  }
  if (!delayed_ack_armed_) {
    delayed_ack_armed_ = true;
    delayed_ack_event_ = sim_.schedule(sim::Duration::millis(40), [this] {
      delayed_ack_armed_ = false;
      if (segments_since_ack_ > 0) sendAck();
    });
  }
}

void TcpSocket::processData(std::uint64_t seq, const net::BufSlice& data) {
  ++stats_.segments_received;
  const auto len = static_cast<std::int64_t>(data.size());
  const std::uint64_t seg_end = seq + static_cast<std::uint64_t>(len);

  if (seg_end <= rcv_nxt_) {
    // Entirely old (retransmission of delivered data): re-ACK.
    ++stats_.stale_segments;
    sendAck();
    return;
  }

  if (seq <= rcv_nxt_) {
    // In-order (possibly with an old prefix): deliver what fits. The
    // arriving payload is adopted into the receive ring zero-copy.
    const auto skip = static_cast<std::int64_t>(rcv_nxt_ - seq);
    auto usable = len - skip;
    const auto free = static_cast<std::int64_t>(advertisedWindow());
    usable = std::min(usable, free);
    if (usable > 0) {
      recv_buf_.appendSlice(data.subslice(static_cast<std::uint32_t>(skip),
                                          static_cast<std::uint32_t>(usable)));
      rcv_nxt_ += static_cast<std::uint64_t>(usable);
      // Drain any now-contiguous out-of-order segments.
      for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
        const auto oseq = it->first;
        auto& odata = it->second;
        const auto oend = oseq + odata.size();
        if (oend <= rcv_nxt_) {
          out_of_order_bytes_ -= static_cast<std::int64_t>(odata.size());
          it = out_of_order_.erase(it);
          continue;
        }
        if (oseq > rcv_nxt_) break;  // still a hole
        const auto oskip = static_cast<std::uint32_t>(rcv_nxt_ - oseq);
        recv_buf_.appendSlice(
            odata.subslice(oskip, odata.length - oskip));
        rcv_nxt_ = oend;
        out_of_order_bytes_ -= static_cast<std::int64_t>(odata.size());
        it = out_of_order_.erase(it);
      }
      recv_data_cond_.notifyAll();
    }
    // A FIN that arrived ahead of missing data may now be consumable.
    if (fin_received_pending_ && fin_seq_in_ == rcv_nxt_) {
      rcv_nxt_ += 1;
      peer_fin_ = true;
      fin_received_pending_ = false;
      recv_data_cond_.notifyAll();
    }
    scheduleAckForData();
    return;
  }

  // Out of order: buffer (bounded) and send an immediate duplicate ACK.
  if (out_of_order_.find(seq) != out_of_order_.end()) {
    // Exact-seq duplicate (wire duplication or a retransmit racing the
    // hole): the existing view already covers it.
    ++stats_.ooo_duplicates;
  } else {
    out_of_order_.emplace(seq, data);
    out_of_order_bytes_ += len;
    // Deterministic bounded eviction: never hold more reassembly bytes
    // than one receive buffer. Evict from the highest sequence down —
    // the views furthest from the hole at rcv_nxt_ are the cheapest to
    // re-fetch (the sender revisits them last) — and never evict the
    // lowest view, which is the next hole-filler.
    while (out_of_order_bytes_ > config_.recv_buffer_bytes &&
           out_of_order_.size() > 1) {
      const auto last = std::prev(out_of_order_.end());
      out_of_order_bytes_ -= static_cast<std::int64_t>(last->second.size());
      out_of_order_.erase(last);
      ++stats_.ooo_evictions;
    }
  }
  sendAck();
}

void TcpSocket::processFin(std::uint64_t fin_seq) {
  if (peer_fin_) {
    sendAck();
    return;
  }
  if (fin_seq == rcv_nxt_) {
    rcv_nxt_ += 1;
    peer_fin_ = true;
    recv_data_cond_.notifyAll();
  } else if (fin_seq > rcv_nxt_) {
    fin_received_pending_ = true;
    fin_seq_in_ = fin_seq;
  }
  sendAck();
}

// ---------------------------------------------------------------------------
// Packet dispatch and handshake
// ---------------------------------------------------------------------------

void TcpSocket::enterReset() {
  if (reset_) return;
  reset_ = true;
  ++stats_.resets;
  state_ = State::kClosed;
  cancelRto();
  if (persist_armed_) {
    sim_.cancel(persist_event_);
    persist_armed_ = false;
  }
  if (delayed_ack_armed_) {
    sim_.cancel(delayed_ack_event_);
    delayed_ack_armed_ = false;
  }
  // Release every buffered byte (both rings and the reassembly views):
  // a reset connection must not pin pooled payload memory.
  send_buf_.popFront(send_buf_.size());
  recv_buf_.popFront(recv_buf_.size());
  out_of_order_.clear();
  out_of_order_bytes_ = 0;
  // Readers see EOF, writers see a permanently writable (discarding)
  // socket — every waiter wakes and observes the closed state.
  peer_fin_ = true;
  connect_failed_ = true;
  established_cond_.notifyAll();
  send_space_cond_.notifyAll();
  recv_data_cond_.notifyAll();
  acked_cond_.notifyAll();
}

void TcpSocket::becomeEstablished() {
  state_ = State::kEstablished;
  cancelRto();
  established_cond_.notifyAll();
  if (listener_ != nullptr) listener_->notifyEstablished(flow_);
  trySend();
}

void TcpSocket::onPacket(net::Packet p) {
  auto* h = p.tcp();
  if (h == nullptr) return;

  // Wire integrity: a segment whose checksum does not match was mutated
  // in flight (header or payload). Drop and count; the sender's normal
  // loss machinery (dup ACKs, RTO) recovers, and corrupted bytes never
  // reach the reassembly path. At zero corruption every checksum matches
  // by construction, so this branch never fires in clean runs.
  if (h->checksum != net::tcpWireChecksum(*h)) {
    ++stats_.checksum_drops;
    return;
  }

  if (h->syn) {
    if (state_ == State::kSynSent && h->is_ack) {
      // SYN|ACK: complete the active open.
      peer_window_ = h->window;
      sendAck();
      becomeEstablished();
    } else if (state_ == State::kSynReceived && !h->is_ack) {
      sendSyn(/*with_ack=*/true);  // duplicate SYN: re-answer
    }
    return;
  }

  if (state_ == State::kSynReceived && h->is_ack && h->ack >= 1) {
    peer_window_ = h->window;
    becomeEstablished();
    // Fall through: the packet may carry data as well.
  }

  if (state_ != State::kEstablished) return;

  if (h->is_ack) {
    processAck(h->ack, h->window, h->payload.empty() && !h->fin);
  }
  if (!h->payload.empty()) {
    processData(h->seq, h->payload);
  }
  if (h->fin) {
    processFin(h->seq);
  }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(net::Host& host, net::PortId port, TcpConfig config)
    : host_(host), port_(port), config_(config), ready_(host.simulator()) {
  const bool bound = host_.bind(net::Protocol::kTcp, port_, this);
  assert(bound && "TCP listen port already in use");
  (void)bound;
}

TcpListener::~TcpListener() {
  shutting_down_ = true;  // sockets we own will call back during teardown
  host_.unbind(net::Protocol::kTcp, port_);
}

sim::Task<std::unique_ptr<TcpSocket>> TcpListener::accept() {
  co_return co_await ready_.pop();
}

void TcpListener::onPacket(net::Packet p) {
  const auto key = p.flow.reversed();  // our side of the connection
  if (const auto it = active_.find(key); it != active_.end()) {
    it->second->onPacket(std::move(p));
    return;
  }
  if (const auto it = pending_.find(key); it != pending_.end()) {
    it->second->onPacket(std::move(p));
    return;
  }
  const auto* h = p.tcp();
  if (h == nullptr || !h->syn || h->is_ack) return;  // stray packet
  // A corrupted SYN must not instantiate connection state: its fields
  // (window, flags) are untrustworthy. Dropping it silently mirrors a
  // checksum-discarding NIC; the client's SYN retransmit retries.
  if (h->checksum != net::tcpWireChecksum(*h)) return;

  // New connection: passive open.
  auto socket = std::unique_ptr<TcpSocket>(
      new TcpSocket(host_, key, config_, this));
  socket->listener_alive_ = alive_token_;
  socket->state_ = TcpSocket::State::kSynReceived;
  socket->peer_window_ = h->window;
  socket->sendSyn(/*with_ack=*/true);
  socket->armRto();
  pending_.emplace(key, std::move(socket));
}

void TcpListener::notifyEstablished(const net::FlowKey& flow) {
  const auto it = pending_.find(flow);
  if (it == pending_.end()) return;
  auto socket = std::move(it->second);
  pending_.erase(it);
  active_.emplace(flow, socket.get());
  ready_.push(std::move(socket));
}

void TcpListener::forgetConnection(const net::FlowKey& flow) {
  if (shutting_down_) return;
  active_.erase(flow);
  pending_.erase(flow);
}

}  // namespace mgq::tcp
