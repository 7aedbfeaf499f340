#include "apps/bandwidth_trace.hpp"

namespace mgq::apps {

BandwidthTrace::BandwidthTrace(sim::Simulator& sim,
                               std::function<std::int64_t()> byte_counter,
                               sim::Duration interval)
    : sim_(sim), counter_(std::move(byte_counter)), interval_(interval) {}

void BandwidthTrace::start() {
  if (running_) return;
  running_ = true;
  sim_.spawn(run());
}

sim::Task<> BandwidthTrace::run() {
  std::int64_t last = counter_();
  while (running_) {
    co_await sim_.delay(interval_);
    if (!running_) co_return;
    const auto now_bytes = counter_();
    const double kbps = static_cast<double>(now_bytes - last) * 8.0 /
                        interval_.toSeconds() / 1000.0;
    series_.push_back(Point{sim_.now().toSeconds(), kbps});
    last = now_bytes;
  }
}

void SequenceTracer::attach(tcp::TcpSocket& socket) {
  socket.on_segment_sent = [this](sim::TimePoint t, std::uint64_t seq,
                                  std::int32_t bytes, bool retransmit) {
    series_.push_back(
        Point{t.toSeconds(), seq, bytes, retransmit});
  };
}

}  // namespace mgq::apps
