// Workload-side measurement recorders: bandwidth-over-time traces
// (Figures 1, 8, 9) and TCP sequence-number traces (Figure 7).
//
// These are *recorders*, not the sampling entry point: probe-driven
// sampling into the metrics registry lives in obs::Sampler
// (src/obs/sampler.hpp). A BandwidthTrace keeps its own in-memory series
// so benches can analyse it (means, phases, oscillation) without going
// through the registry.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::apps {

/// Periodically samples a monotonically nondecreasing byte counter and
/// records the per-interval rate.
class BandwidthTrace {
 public:
  struct Point {
    double t_seconds;
    double kbps;
  };

  BandwidthTrace(sim::Simulator& sim,
                 std::function<std::int64_t()> byte_counter,
                 sim::Duration interval = sim::Duration::seconds(1.0));

  void start();
  void stop() { running_ = false; }

  const std::vector<Point>& series() const { return series_; }

 private:
  sim::Task<> run();

  sim::Simulator& sim_;
  std::function<std::int64_t()> counter_;
  sim::Duration interval_;
  bool running_ = false;
  std::vector<Point> series_;
};

/// Records (time, sequence) for every data segment a TCP socket emits —
/// the paper's Figure 7 visualization of burstiness.
class SequenceTracer {
 public:
  struct Point {
    double t_seconds;
    std::uint64_t seq;
    std::int32_t bytes;
    bool retransmit;
  };

  /// Installs the trace hook (replaces any previous on_segment_sent).
  void attach(tcp::TcpSocket& socket);

  const std::vector<Point>& series() const { return series_; }
  void clear() { series_.clear(); }

 private:
  std::vector<Point> series_;
};

}  // namespace mgq::apps
