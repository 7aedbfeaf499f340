#include "scenario/spec.hpp"

#include <climits>
#include <cmath>
#include <cstdio>

namespace mgq::scenario {
namespace {

ReservationSpec* firstNetworkReservation(ScenarioSpec& spec) {
  for (auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kQosAttribute) return &r;
  }
  return nullptr;
}

/// `value` as a whole number in [lo, hi]. Fractions, NaN and values out
/// of range are refused: casting them would silently truncate, or be
/// undefined behaviour.
bool wholeNumber(double value, double lo, double hi, std::int64_t& out) {
  if (!(value >= lo && value <= hi) || std::trunc(value) != value) {
    return false;
  }
  out = static_cast<std::int64_t>(value);
  return true;
}

constexpr double kMaxSeed = 9007199254740992.0;  // 2^53: doubles stay exact
constexpr double kMaxBytes = INT_MAX;  // max_message_size is an int

}  // namespace

bool applyParam(ScenarioSpec& spec, const std::string& key, double value) {
  if (key == "seed") {
    std::int64_t seed = 0;
    if (!wholeNumber(value, 0, kMaxSeed, seed)) return false;
    spec.seed = static_cast<std::uint64_t>(seed);
    return true;
  }
  if (key == "reservation_kbps") {
    if (auto* r = firstNetworkReservation(spec)) {
      r->network_kbps = value;
      return true;
    }
    return false;
  }
  if (key == "bucket_divisor") {
    if (auto* r = firstNetworkReservation(spec)) {
      r->bucket_divisor = value;
      return true;
    }
    if (!spec.flows.empty()) {
      spec.flows.front().bucket_divisor = value;
      return true;
    }
    return false;
  }
  if (key == "flow_rate_bps") {
    if (spec.flows.empty()) return false;
    spec.flows.front().rate_bps = value;
    return true;
  }
  if (key == "contention_bps") {
    spec.contention.enabled = true;
    spec.contention.rate_bps = value;
    return true;
  }
  if (key == "cpu_fraction") {
    for (auto& r : spec.reservations) {
      if (r.via == ReservationSpec::Via::kGaraCpu) {
        r.cpu_fraction = value;
        return true;
      }
    }
    return false;
  }
  if (key == "message_bytes") {
    auto* w = std::get_if<PingPongWorkload>(&spec.workload);
    std::int64_t bytes = 0;
    if (w == nullptr || !wholeNumber(value, 1, kMaxBytes, bytes)) {
      return false;
    }
    w->message_bytes = static_cast<int>(bytes);
    if (auto* r = firstNetworkReservation(spec)) {
      r->max_message_size = w->message_bytes;
    }
    return true;
  }
  if (key == "frame_bytes") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr || !wholeNumber(value, 1, kMaxBytes, w->frame_bytes)) {
      return false;
    }
    if (auto* r = firstNetworkReservation(spec)) {
      r->max_message_size = static_cast<int>(w->frame_bytes);
    }
    return true;
  }
  if (key == "fps") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->frames_per_second = value;
    return true;
  }
  if (key == "cpu_seconds_per_frame") {
    auto* w = std::get_if<VisualizationWorkload>(&spec.workload);
    if (w == nullptr) return false;
    w->cpu_seconds_per_frame = value;
    return true;
  }
  if (key == "offered_bps") {
    if (auto* w = std::get_if<OfferedLoadTcpWorkload>(&spec.workload)) {
      w->offered_bps = value;
      return true;
    }
    if (auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload)) {
      if (a->tenants.empty()) return false;
      a->tenants.front().offered_bps = value;
      return true;
    }
    return false;
  }
  if (key == "adapt_cadence" || key == "adapt_headroom") {
    auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload);
    if (a == nullptr || !a->controller) return false;
    if (key == "adapt_cadence") {
      if (!(value > 0)) return false;  // the loop would never advance
      a->controller->cadence_seconds = value;
    } else {
      if (!(value >= 1)) return false;  // sizes below demand starve it
      a->controller->policy.headroom = value;
    }
    return true;
  }
  if (key == "bulk_seconds" || key == "idle_seconds") {
    auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload);
    if (a == nullptr || a->tenants.empty()) return false;
    if (key == "bulk_seconds") {
      a->tenants.front().bulk_seconds = value;
    } else {
      a->tenants.front().idle_seconds = value;
    }
    return true;
  }
  if (key == "lease_seconds") {
    if (!(value > 0)) {
      if (spec.resil) spec.resil->lease.reset();
      return true;
    }
    if (!spec.resil) spec.resil.emplace();
    spec.resil->lease = sim::Duration::seconds(value);
    return true;
  }
  if (key == "crash_at" || key == "restart_after") {
    // A crash needs the journal and reconciler to restart from.
    if (!spec.resil) spec.resil.emplace();
    if (spec.agent_crashes.empty()) spec.agent_crashes.emplace_back();
    if (key == "crash_at") {
      spec.agent_crashes.front().at_seconds = value;
    } else {
      spec.agent_crashes.front().restart_after_seconds = value;
    }
    return true;
  }
  if (key == "seconds") {
    if (auto* p = std::get_if<PingPongWorkload>(&spec.workload)) {
      p->seconds = value;
      return true;
    }
    if (auto* v = std::get_if<VisualizationWorkload>(&spec.workload)) {
      v->seconds = value;
      if (spec.measure_at_seconds > 0) spec.measure_at_seconds = value;
      return true;
    }
    if (auto* o = std::get_if<OfferedLoadTcpWorkload>(&spec.workload)) {
      o->seconds = value;
      return true;
    }
    if (auto* a = std::get_if<AdaptiveTenantsWorkload>(&spec.workload)) {
      a->seconds = value;
      return true;
    }
    return false;
  }
  return false;
}

std::string paramValueLabel(double value) {
  // Integral values print without a decimal point; others keep up to
  // three significant decimals ("1.06", "0.85").
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", value);
  }
  return buf;
}

}  // namespace mgq::scenario
