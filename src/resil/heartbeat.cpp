#include "resil/heartbeat.hpp"

#include <algorithm>
#include <sstream>

#include "gara/gara.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgq::resil {

namespace {
// phi = -log10(exp(-t/mean)) = t / (mean * ln 10).
constexpr double kLog10E = 0.4342944819032518;
}  // namespace

void HeartbeatMonitor::attachObservability(obs::MetricsRegistry* metrics,
                                           obs::TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void HeartbeatMonitor::count(const char* counter) {
  if (metrics_ != nullptr) metrics_->counter(counter).inc();
}

void HeartbeatMonitor::watch(const std::string& name, Probe probe,
                             DownHandler on_down) {
  auto& peer = peers_[name];
  peer.probe = std::move(probe);
  peer.on_down = std::move(on_down);
  peer.last_ok = sim_.now();
  sim_.schedule(kInterval, [this, name] { tick(name); });
}

double HeartbeatMonitor::meanIntervalOf(const Peer& peer) const {
  if (peer.intervals.empty()) return kInterval.toSeconds();
  double sum = 0.0;
  for (const auto s : peer.intervals) sum += s;
  return std::max(sum / static_cast<double>(peer.intervals.size()), 1e-9);
}

double HeartbeatMonitor::phiOf(const Peer& peer) const {
  const double elapsed = (sim_.now() - peer.last_ok).toSeconds();
  if (elapsed <= 0.0) return 0.0;
  return kLog10E * elapsed / meanIntervalOf(peer);
}

double HeartbeatMonitor::phi(const std::string& name) const {
  const auto it = peers_.find(name);
  return it == peers_.end() ? 0.0 : phiOf(it->second);
}

bool HeartbeatMonitor::suspected(const std::string& name) const {
  const auto it = peers_.find(name);
  return it != peers_.end() && it->second.down_reported;
}

void HeartbeatMonitor::tick(const std::string& name) {
  const auto it = peers_.find(name);
  if (it == peers_.end()) return;
  auto& peer = it->second;

  if (!suspended_) {
    if (peer.probe && peer.probe()) {
      // Cap the recorded inter-arrival so one long outage does not
      // inflate the learned mean (and deafen the detector) afterwards.
      const double gap =
          std::min((sim_.now() - peer.last_ok).toSeconds(),
                   3.0 * kInterval.toSeconds());
      peer.intervals.push_back(std::max(gap, 1e-9));
      while (peer.intervals.size() > kWindow) {
        peer.intervals.pop_front();
      }
      peer.last_ok = sim_.now();
      if (peer.down_reported) {
        peer.down_reported = false;
        count("resil.heartbeat.recovered");
        if (trace_ != nullptr) {
          trace_->record("resil", "manager_up", 0, 0.0, name);
        }
      }
    }
    const double phi = phiOf(peer);
    if (metrics_ != nullptr) {
      metrics_->gauge("resil.heartbeat.phi." + name).set(phi);
    }
    if (!peer.down_reported && phi > kPhiThreshold) {
      peer.down_reported = true;
      count("resil.heartbeat.manager_down");
      if (trace_ != nullptr) {
        trace_->record("resil", "manager_down", 0, phi, name);
      }
      if (peer.on_down) peer.on_down(name, phi);
    }
  }
  sim_.schedule(kInterval, [this, name] { tick(name); });
}

void HeartbeatMonitor::suspend() { suspended_ = true; }

void HeartbeatMonitor::resume() {
  suspended_ = false;
  for (auto& [name, peer] : peers_) {
    peer.last_ok = sim_.now();  // downtime was ours, not the peer's
  }
}

void attachManagerHeartbeats(HeartbeatMonitor& monitor, gara::Gara& gara) {
  for (const auto& name : gara.resourceNames()) {
    auto* manager = gara.findManager(name);
    if (manager == nullptr) continue;
    monitor.watch(
        name, [manager] { return manager->reachable(); },
        [&gara, manager](const std::string& which, double phi) {
          // Fail the suspected manager's live reservations so the agent's
          // recovery reacts now, not on the next request.
          std::ostringstream reason;
          reason << "manager '" << which << "' suspected down (phi="
                 << phi << ")";
          for (const auto& handle : gara.liveHandles()) {
            if (&handle->manager() == manager) {
              gara.fail(handle, reason.str());
            }
          }
        });
  }
}

}  // namespace mgq::resil
