#include "chaos/invariants.hpp"

#include <cstdio>

#include "apps/garnet_rig.hpp"
#include "gara/gara.hpp"
#include "gq/qos_agent.hpp"
#include "net/buffer.hpp"
#include "net/token_bucket.hpp"
#include "obs/trace.hpp"
#include "scenario/builder.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::chaos {
namespace {

std::string formatTraceEvent(const obs::TraceEvent& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%.6f %s.%s id=%llu v=%g", e.t_seconds,
                e.category.c_str(), e.event.c_str(),
                static_cast<unsigned long long>(e.id), e.value);
  std::string line = buf;
  if (!e.detail.empty()) line += " " + e.detail;
  return line;
}

}  // namespace

InvariantMonitor::InvariantMonitor(sim::Simulator& sim)
    : sim_(sim), last_seen_(sim.now()) {}

void InvariantMonitor::addCheck(std::string name,
                                std::function<std::string()> check) {
  checks_.push_back({std::move(name), std::move(check)});
}

void InvariantMonitor::arm() {
  if (armed_) return;
  armed_ = true;
  sim_.schedule(kCadence, [this] { tick(); });
}

void InvariantMonitor::tick() {
  sweep();
  sim_.schedule(kCadence, [this] { tick(); });
}

void InvariantMonitor::sweep() {
  const auto now = sim_.now();
  if (now < last_seen_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "clock moved backwards: %.9f -> %.9f",
                  last_seen_.toSeconds(), now.toSeconds());
    report("monotone-time", buf);
  }
  last_seen_ = now;
  for (const auto& check : checks_) {
    const std::string error = check.fn();
    if (!error.empty()) report(check.name, error);
  }
}

void InvariantMonitor::report(const std::string& name,
                              const std::string& message) {
  if (violations_.size() >= kMaxViolations) return;
  InvariantViolation v;
  v.t_seconds = sim_.now().toSeconds();
  v.name = name;
  v.message = message;
  if (trace_ != nullptr) {
    const auto& events = trace_->events();
    const std::size_t n = events.size();
    const std::size_t from = n > kTraceTail ? n - kTraceTail : 0;
    for (std::size_t i = from; i < n; ++i) {
      v.trace_tail.push_back(formatTraceEvent(events[i]));
    }
  }
  violations_.push_back(std::move(v));
}

void attachStandardInvariants(InvariantMonitor& monitor,
                              scenario::BuiltScenario& built) {
  auto& rig = built.rig;
  auto* gara = &rig.gara;
  auto* sim = &rig.sim;

  // Slot-table bandwidth conservation: total admitted never exceeds a
  // manager's capacity at any instant. Resolved through Gara each sweep so
  // a swapped-in fault proxy is the table being checked.
  monitor.addCheck("slot-conservation", [gara, sim]() -> std::string {
    for (const auto& name : gara->resourceNames()) {
      const auto* manager = gara->findManager(name);
      if (manager == nullptr) continue;
      const double used = manager->slots().usedAt(sim->now());
      const double capacity = manager->slots().capacity();
      if (used > capacity * (1.0 + 1e-9) + 1e-6) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: admitted %.0f exceeds capacity %.0f", name.c_str(),
                      used, capacity);
        return buf;
      }
    }
    return {};
  });

  // Token-bucket fill level stays within [-depth, depth] (forceConsume
  // debt is clamped at -depth; refill clamps at +depth).
  monitor.addCheck("bucket-level", [gara]() -> std::string {
    for (const auto& handle : gara->liveHandles()) {
      if (handle->bucket == nullptr) continue;
      const double level = handle->bucket->peekTokens();
      const double depth =
          static_cast<double>(handle->bucket->depthBytes());
      if (level < -depth - 1e-6 || level > depth + 1e-6) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "reservation %llu: bucket level %.1f outside "
                      "[-%.0f, %.0f]",
                      static_cast<unsigned long long>(handle->id()), level,
                      depth, depth);
        return buf;
      }
    }
    return {};
  });

  // No reservation stuck outside its lifecycle: kPending past its start
  // time or kActive past its end, beyond a grace that absorbs
  // same-timestamp activation/expiry races.
  monitor.addCheck("reservation-liveness", [gara, sim]() -> std::string {
    const auto grace = sim::Duration::millis(100);
    const auto now = sim->now();
    for (const auto& handle : gara->liveHandles()) {
      const auto& r = handle->request();
      char buf[160];
      if (handle->state() == gara::ReservationState::kPending &&
          now > r.start + grace) {
        std::snprintf(buf, sizeof(buf),
                      "reservation %llu still pending %.3fs past its start",
                      static_cast<unsigned long long>(handle->id()),
                      (now - r.start).toSeconds());
        return buf;
      }
      const bool bounded = r.duration < sim::Duration::infinite();
      if (handle->state() == gara::ReservationState::kActive && bounded &&
          now > r.start + r.duration + grace) {
        std::snprintf(buf, sizeof(buf),
                      "reservation %llu still active %.3fs past its end",
                      static_cast<unsigned long long>(handle->id()),
                      (now - r.start - r.duration).toSeconds());
        return buf;
      }
    }
    return {};
  });

  // Core bottleneck class queues: byte accounting consistent and within
  // capacity.
  monitor.addCheck("queue-consistency", [&rig]() -> std::string {
    auto* bottleneck = rig.garnet.coreBottleneckInterface();
    if (bottleneck == nullptr) return {};
    for (const auto dscp :
         {net::Dscp::kExpedited, net::Dscp::kLowLatency,
          net::Dscp::kBestEffort}) {
      const std::string error =
          bottleneck->qdisc().classQueue(dscp).invariantError();
      if (!error.empty()) {
        return std::string("core bottleneck ") + net::dscpName(dscp) + ": " +
               error;
      }
    }
    return {};
  });

  // --- adversarial data-plane invariants (DESIGN.md §14) ----------------

  // Checksum accounting conservation: every receiver-side checksum drop
  // must be explained by a corruption emitted on the premium egress wire.
  // A duplicated corrupted segment arrives (and fails) twice while
  // counting one corruption, so the bound is corrupted + duplicated; with
  // zero corruptions emitted, zero drops are tolerated.
  monitor.addCheck("checksum-conservation", [&built, &rig]() -> std::string {
    if (built.receiver == nullptr) return {};
    const auto* egress = rig.garnet.ingressEdgeInterface()->peer();
    const auto& wire = egress->stats();
    const auto drops = built.receiver->stats().checksum_drops;
    const auto bound =
        wire.corrupted == 0 ? 0 : wire.corrupted + wire.duplicated;
    if (drops > bound) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "receiver counted %llu checksum drops but the wire "
                    "emitted only %llu corruptions (+%llu dups)",
                    static_cast<unsigned long long>(drops),
                    static_cast<unsigned long long>(wire.corrupted),
                    static_cast<unsigned long long>(wire.duplicated));
      return buf;
    }
    return {};
  });

  // No delivery of corrupted bytes: the offered-load server drains with
  // pattern verification, and a corrupted byte reaching the application
  // turns into a counted connection reset. Zero resets at every sweep
  // means the checksum wall held.
  monitor.addCheck("no-corrupted-delivery", [&built]() -> std::string {
    if (built.receiver == nullptr) return {};
    const auto resets = built.receiver->stats().resets;
    if (resets > 0 || built.receiver->resetDetected()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "corrupted bytes reached the application: %llu "
                    "connection reset(s)",
                    static_cast<unsigned long long>(resets));
      return buf;
    }
    return {};
  });

  // Reorder-buffer bound: packets held back by the reorder hook are
  // bounded by what the link can serialize inside the hold window (the
  // injector's default 5 ms, floor 40-byte wire size), and the receiver's
  // reassembly buffer never parks more than one receive buffer of bytes.
  monitor.addCheck("reorder-buffer-bound", [&built, &rig]() -> std::string {
    const auto* egress = rig.garnet.ingressEdgeInterface()->peer();
    const auto held = egress->delayedInFlight();
    const auto held_bound = static_cast<std::size_t>(
        2.0 + egress->rateBps() * 0.005 / (8.0 * 40.0));
    char buf[160];
    if (held > held_bound) {
      std::snprintf(buf, sizeof(buf),
                    "%zu packets held for reorder exceeds the %zu the link "
                    "serializes in one hold window",
                    held, held_bound);
      return buf;
    }
    if (built.receiver != nullptr) {
      const auto ooo = built.receiver->outOfOrderBytes();
      const auto bound = built.receiver->config().recv_buffer_bytes;
      if (ooo > bound) {
        std::snprintf(buf, sizeof(buf),
                      "receiver parks %lld out-of-order bytes, above the "
                      "%lld-byte receive buffer",
                      static_cast<long long>(ooo),
                      static_cast<long long>(bound));
        return buf;
      }
    }
    return {};
  });

  // Pool-ceiling respected: with a live-bytes ceiling configured, the
  // shed-able producers must keep the pool from racing away. allocate()
  // stays ceiling-exempt for correctness paths (ring gathers, reassembly
  // views), so a bounded overshoot — socket buffers plus in-flight wire
  // bytes — is legal; 1 MiB of slack covers the premium flow's worst
  // case, while a leak (the real failure mode) still trips the check.
  monitor.addCheck("pool-ceiling-respected", []() -> std::string {
    const auto& pool = net::BufferPool::local();
    const auto ceiling = pool.liveBytesCeiling();
    if (ceiling <= 0) return {};
    const auto live = pool.stats().live_bytes;
    if (live > ceiling + (1 << 20)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pool holds %lld live bytes against a %lld-byte "
                    "ceiling (+1MiB slack)",
                    static_cast<long long>(live),
                    static_cast<long long>(ceiling));
      return buf;
    }
    return {};
  });

  // Control-plane resilience invariants, only when the spec wired the
  // stack.
  if (built.resil != nullptr) {
    if (built.resil->leases != nullptr) {
      // Lease safety: no lease outlives deadline + grace — the guard
      // timer must have hard-expired it by then. 1 ms slack absorbs
      // same-timestamp guard/sweep ordering.
      auto* leases = built.resil->leases.get();
      monitor.addCheck("lease-safety", [leases, sim]() -> std::string {
        const auto now = sim->now();
        const auto limit =
            resil::LeaseManager::kGrace + sim::Duration::millis(1);
        for (const auto& lease : leases->leases()) {
          if (now > lease.deadline + limit) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "reservation %llu: lease %.3fs past deadline+grace "
                "without hard expiry",
                static_cast<unsigned long long>(lease.handle->id()),
                (now - lease.deadline).toSeconds());
            return buf;
          }
        }
        return {};
      });
    }
    // No zombie enforcement: every id a manager is enforcing must be live
    // in the journal (journal-live ⊇ enforced). Terminal lifecycle ops
    // fire after enforcement release, and the journal survives crashes,
    // so this holds at every observable instant — including mid-crash.
    auto* journal = built.resil->journal.get();
    monitor.addCheck("no-zombie-enforcement", [gara, journal]() -> std::string {
      for (const auto& name : gara->resourceNames()) {
        const auto* manager = gara->findManager(name);
        if (manager == nullptr) continue;
        for (const auto id : manager->enforcedIds()) {
          if (!journal->isLive(id)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s: enforcing reservation %llu the journal "
                          "says is retired",
                          name.c_str(),
                          static_cast<unsigned long long>(id));
            return buf;
          }
        }
      }
      return {};
    });
  }

  // Adaptive-controller invariants (DESIGN.md §15), only when a
  // QosController is armed on this run.
  if (built.adapt != nullptr && built.adapt->controller != nullptr) {
    auto* controller = built.adapt->controller.get();

    // No over-admission by the controller: per resource manager, the
    // controller-managed live reservations must sum within the manager's
    // slot-table capacity — the arbiter may only re-grant capacity that
    // admission control actually has. Stricter than slot-conservation:
    // it catches an arbiter that over-grants even if the slot table's
    // own accounting were broken in the same direction.
    monitor.addCheck("adapt-no-over-admission",
                     [controller]() -> std::string {
      std::vector<std::pair<const gara::ResourceManager*, double>> sums;
      for (const auto* path : controller->managedReservations()) {
        for (const auto& leg : path->handles) {
          if (leg == nullptr || gara::isTerminal(leg->state())) continue;
          const auto* manager = &leg->manager();
          bool found = false;
          for (auto& entry : sums) {
            if (entry.first == manager) {
              entry.second += leg->request().amount;
              found = true;
              break;
            }
          }
          if (!found) sums.emplace_back(manager, leg->request().amount);
        }
      }
      for (const auto& entry : sums) {
        const double capacity = entry.first->slots().capacity();
        if (entry.second > capacity * (1.0 + 1e-9) + 1e-6) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "controller-managed reservations total %.0f against "
                        "capacity %.0f",
                        entry.second, capacity);
          return buf;
        }
      }
      return {};
    });

    // Post-modify pacing consistency: after every resize the enforcing
    // edge leg's token bucket must have been re-derived for the current
    // amount (depth == depthForRate(amount, divisor), mirroring what the
    // manager computes on enforce) with its fill level inside ±depth.
    monitor.addCheck("adapt-bucket-consistent",
                     [controller]() -> std::string {
      for (const auto* path : controller->managedReservations()) {
        if (path->handles.empty()) continue;
        const auto& edge = path->handles.front();
        if (edge == nullptr || gara::isTerminal(edge->state())) continue;
        if (edge->bucket == nullptr) continue;
        const auto& req = edge->request();
        const auto want =
            net::TokenBucket::depthForRate(req.amount, req.bucket_divisor);
        const auto depth = edge->bucket->depthBytes();
        char buf[160];
        if (depth != want) {
          std::snprintf(buf, sizeof(buf),
                        "reservation %llu: bucket depth %lld but amount "
                        "%.0f wants %lld",
                        static_cast<unsigned long long>(edge->id()),
                        static_cast<long long>(depth), req.amount,
                        static_cast<long long>(want));
          return buf;
        }
        const double level = edge->bucket->peekTokens();
        const double bound = static_cast<double>(depth);
        if (level < -bound - 1e-6 || level > bound + 1e-6) {
          std::snprintf(buf, sizeof(buf),
                        "reservation %llu: post-modify bucket level %.1f "
                        "outside [-%.0f, %.0f]",
                        static_cast<unsigned long long>(edge->id()), level,
                        bound, bound);
          return buf;
        }
      }
      return {};
    });
  }

  // QoS request-state legality: event-driven — the agent fires the
  // observer synchronously on every edge, so an illegal transition is
  // caught the moment it happens, not at the next sweep.
  rig.agent.setStateObserver([&monitor](std::int32_t context,
                                        gq::QosRequestState from,
                                        gq::QosRequestState to) {
    if (gq::qosTransitionLegal(from, to)) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "comm %d: illegal edge %s -> %s",
                  context, gq::qosRequestStateName(from),
                  gq::qosRequestStateName(to));
    monitor.report("qos-transition", buf);
  });
}

}  // namespace mgq::chaos
