// Heartbeats and failure detection between the QoS agent and its
// registered resource managers.
//
// The monitor probes each watched peer on a fixed interval and keeps a
// phi-accrual-style suspicion score: phi = -log10 P(silence this long),
// under an exponential model fitted to the observed inter-arrival times
// of successful probes. Crossing the threshold fires the
// peer's down handler exactly once per outage; a successful probe after
// an outage re-arms it. This turns a silently dead per-domain manager
// into an explicit manager-down event for the agent's failure recovery,
// instead of waiting for the next reservation request to fail.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "sim/simulator.hpp"

namespace mgq::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace mgq::obs

namespace mgq::gara {
class Gara;
}

namespace mgq::resil {

class HeartbeatMonitor {
 public:
  static constexpr sim::Duration kInterval = sim::Duration::millis(250);
  /// Suspicion threshold; phi = 2 means "this silence had probability
  /// 1e-2 under the learned inter-arrival distribution".
  static constexpr double kPhiThreshold = 2.0;
  /// Sliding window of successful-probe inter-arrival samples.
  static constexpr std::size_t kWindow = 16;

  /// Probe the peer's control channel; true = reachable now.
  using Probe = std::function<bool()>;
  using DownHandler = std::function<void(const std::string& name, double phi)>;

  explicit HeartbeatMonitor(sim::Simulator& sim) : sim_(sim) {}
  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

  void attachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceBuffer* trace);

  /// Starts probing `name` every kInterval. The down handler fires once
  /// when phi crosses the threshold and re-arms after recovery.
  void watch(const std::string& name, Probe probe, DownHandler on_down);

  /// Agent crashed: probing pauses (nobody is sending heartbeats).
  void suspend();
  /// Agent restarted: probing resumes with a fresh silence baseline so
  /// the downtime itself is not counted as peer silence.
  void resume();
  bool suspended() const { return suspended_; }

  /// Current suspicion score for a watched peer (0 when unknown).
  double phi(const std::string& name) const;
  bool suspected(const std::string& name) const;
  std::size_t watchedCount() const { return peers_.size(); }

 private:
  struct Peer {
    Probe probe;
    DownHandler on_down;
    sim::TimePoint last_ok;
    std::deque<double> intervals;  // seconds between successful probes
    bool down_reported = false;
  };

  void tick(const std::string& name);
  double phiOf(const Peer& peer) const;
  double meanIntervalOf(const Peer& peer) const;
  void count(const char* counter);

  sim::Simulator& sim_;
  std::map<std::string, Peer> peers_;
  bool suspended_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

/// Wires a heartbeat probe for every manager registered with `gara`:
/// probe = ResourceManager::reachable(), down handler = fail that
/// manager's live reservations with a "manager suspected down" reason —
/// which drives the QoS agent's normal failure-recovery path.
void attachManagerHeartbeats(HeartbeatMonitor& monitor, gara::Gara& gara);

}  // namespace mgq::resil
