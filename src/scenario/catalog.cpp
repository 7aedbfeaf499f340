#include "scenario/catalog.hpp"

#include <cmath>

#include "scenario/fault_targets.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "util/stats.hpp"

namespace mgq::scenario {
namespace {

constexpr auto kDown = sim::FaultAction::kDown;
constexpr auto kUp = sim::FaultAction::kUp;
constexpr auto kLossStart = sim::FaultAction::kLossStart;

sim::FaultEvent fault(double at_seconds, const char* target,
                      sim::FaultAction action, double param = 0.0) {
  return {sim::TimePoint::fromSeconds(at_seconds), target, action, param};
}

}  // namespace

ScenarioSpec offeredLoadFlowSpec(const std::string& name,
                                 double reservation_bps, double offered_bps,
                                 double seconds) {
  ScenarioSpec spec;
  spec.name = name;
  OfferedLoadTcpWorkload w;
  w.offered_bps = offered_bps;
  w.seconds = seconds;
  // The figure-1 flow uses deep application sockets so pacing, not the
  // socket buffer, limits the offered load.
  w.use_world_tcp = false;
  w.tcp.send_buffer_bytes = 256 * 1024;
  w.tcp.recv_buffer_bytes = 256 * 1024;
  spec.workload = w;
  spec.run_until_seconds = seconds;
  FlowSpec flow;
  flow.rate_bps = reservation_bps;
  spec.flows.push_back(flow);
  spec.contention.enabled = true;
  return spec;
}

ScenarioSpec pingPongSpec(const std::string& name, double reservation_kbps,
                          int message_bytes, double seconds) {
  ScenarioSpec spec;
  spec.name = name;
  PingPongWorkload w;
  w.message_bytes = message_bytes;
  w.seconds = seconds;
  spec.workload = w;
  spec.contention.enabled = true;
  if (reservation_kbps > 0) {
    ReservationSpec r;
    r.network_kbps = reservation_kbps;
    r.raw_network_rate = true;
    r.max_message_size = message_bytes;
    spec.reservations.push_back(r);
  }
  return spec;
}

ScenarioSpec visualizationSpec(const std::string& name,
                               double reservation_kbps,
                               double frames_per_second,
                               std::int64_t frame_bytes, double seconds,
                               double bucket_divisor,
                               double snapshot_grace_seconds) {
  ScenarioSpec spec;
  spec.name = name;
  VisualizationWorkload w;
  w.frames_per_second = frames_per_second;
  w.frame_bytes = frame_bytes;
  w.seconds = seconds;
  spec.workload = w;
  spec.contention.enabled = true;
  if (reservation_kbps > 0) {
    ReservationSpec r;
    r.network_kbps = reservation_kbps;
    r.raw_network_rate = true;
    r.max_message_size = static_cast<int>(frame_bytes);
    r.bucket_divisor = bucket_divisor;
    spec.reservations.push_back(r);
  }
  spec.measure_at_seconds = seconds;
  spec.snapshot_grace_seconds = snapshot_grace_seconds;
  return spec;
}

ScenarioSpec burstTraceSpec(const std::string& name, double frames_per_second,
                            std::int64_t frame_bytes) {
  ScenarioSpec spec;
  spec.name = name;
  VisualizationWorkload w;
  w.frames_per_second = frames_per_second;
  w.frame_bytes = frame_bytes;
  w.seconds = 6.0;
  spec.workload = w;
  // Burstiness is a property of the sender: no contention, no reservation.
  spec.trace_sequences = true;
  spec.run_until_seconds = 8.0;
  return spec;
}

ScenarioSpec fig8Spec() {
  ScenarioSpec spec;
  spec.name = "fig8_cpu_reservation";
  VisualizationWorkload w;
  w.frames_per_second = 20.0;
  w.frame_bytes = 93'750;  // 20 fps x 93.75 KB = 15 Mb/s
  w.seconds = 30.0;
  // 42.5 ms of work per 50 ms frame: needs 85% of the CPU.
  w.cpu_seconds_per_frame = 0.0425;
  spec.workload = w;
  spec.faults.push_back(fault(10.0, fault_target::kSenderCpuHog, kDown));
  ReservationSpec r;
  r.via = ReservationSpec::Via::kGaraCpu;
  r.at_seconds = 20.0;
  r.cpu_fraction = 0.9;
  spec.reservations.push_back(r);
  spec.run_until_seconds = 32.0;
  spec.checks = {
      {"initial phase sustains ~15 Mb/s",
       [](const ScenarioResult& res) {
         return std::abs(res.meanKbps(2, 10) - 15'000) < 1'500;
       }},
      {"CPU contention cuts the stream sharply (paper: roughly halved)",
       [](const ScenarioResult& res) {
         return res.meanKbps(12, 20) < 0.65 * res.meanKbps(2, 10);
       }},
      {"the 90% CPU reservation restores full bandwidth",
       [](const ScenarioResult& res) {
         const double free_kbps = res.meanKbps(2, 10);
         return std::abs(res.meanKbps(22, 30) - free_kbps) < 0.15 * free_kbps;
       }},
  };
  return spec;
}

ScenarioSpec fig9Spec() {
  ScenarioSpec spec;
  spec.name = "fig9_combined";
  VisualizationWorkload w;
  w.frames_per_second = 20.0;
  w.frame_bytes = 218'750;  // 20 fps x 218.75 KB = 35 Mb/s
  w.seconds = 50.0;
  // 30 ms of work per 50 ms frame: with the ~18 ms TCP hand-off of a
  // 219 KB frame this just sustains 20 fps; a fair-share hog pushes the
  // frame time to ~78 ms (~13 fps).
  w.cpu_seconds_per_frame = 0.030;
  spec.workload = w;
  // t=10: 48 Mb/s of best-effort UDP against the 55 Mb/s core — the
  // unreserved TCP flow is squeezed hard but not annihilated.
  spec.contention = ContentionSpec{true, 48e6, 10.0};
  ReservationSpec net;
  net.at_seconds = 21.0;
  net.network_kbps = 35'000.0;
  net.max_message_size = 218'750;
  spec.reservations.push_back(net);
  spec.faults.push_back(fault(31.0, fault_target::kSenderCpuHog, kDown));
  ReservationSpec cpu;
  cpu.via = ReservationSpec::Via::kGaraCpu;
  cpu.at_seconds = 41.0;
  cpu.cpu_fraction = 0.9;
  spec.reservations.push_back(cpu);
  spec.run_until_seconds = 52.0;
  spec.checks = {
      {"initial phase sustains ~35 Mb/s",
       [](const ScenarioResult& res) {
         return std::abs(res.meanKbps(2, 10) - 35'000) < 5'000;
       }},
      {"network congestion reduces bandwidth",
       [](const ScenarioResult& res) {
         return res.meanKbps(12, 21) < 0.6 * res.meanKbps(2, 10);
       }},
      {"the network reservation restores bandwidth",
       [](const ScenarioResult& res) {
         const double clean = res.meanKbps(2, 10);
         return std::abs(res.meanKbps(24, 31) - clean) < 0.2 * clean;
       }},
      {"CPU contention reduces bandwidth despite the network reservation",
       [](const ScenarioResult& res) {
         return res.meanKbps(33, 41) < 0.75 * res.meanKbps(2, 10);
       }},
      {"adding the CPU reservation restores full bandwidth",
       [](const ScenarioResult& res) {
         const double clean = res.meanKbps(2, 10);
         return std::abs(res.meanKbps(44, 50) - clean) < 0.2 * clean;
       }},
  };
  return spec;
}

ScenarioSpec fdCriticalLinkSpec() {
  using W = FiniteDifferenceWorkload;
  ScenarioSpec spec;
  spec.name = "fd_critical_link";
  spec.workload = W{};
  spec.contention.enabled = true;
  // A budget, not the stop time: the job stops the run when it finishes.
  // Best effort under this contention needs ~280 s, premium under 1 s.
  spec.run_until_seconds = 600.0;
  ReservationSpec r;
  r.network_kbps = 20'000.0;
  r.max_message_size = W::kCols * static_cast<int>(sizeof(double));
  spec.reservations.push_back(r);
  spec.checks = {
      {"the job computes the single-process reference checksum",
       [](const ScenarioResult& res) {
         return res.fd.iterations == W::kIterations &&
                std::abs(res.fd.checksum -
                         apps::finiteDifferenceReferenceChecksum(
                             W::kRows, W::kCols, W::kIterations)) < 1e-9;
       }}};
  return spec;
}

ScenarioSpec priorityQueuingSpec(const std::string& name, bool mark_ef) {
  ScenarioSpec spec;
  spec.name = name;
  OfferedLoadTcpWorkload w;
  // Paced at the reserved rate: 6.25 KB every 10 ms = 5 Mb/s.
  w.chunk_bytes = 6'250;
  w.chunk_interval_seconds = 0.010;
  w.seconds = 15.0;
  spec.workload = w;
  spec.run_until_seconds = 15.0;
  FlowSpec flow;
  flow.rate_bps = 5e6;
  flow.mark = mark_ef ? net::Dscp::kExpedited : net::Dscp::kBestEffort;
  flow.match_dst = false;
  spec.flows.push_back(flow);
  spec.contention.enabled = true;
  if (mark_ef) {
    spec.checks = {{"EF-marked flow sustains most of its reservation",
                    [](const ScenarioResult& res) {
                      return res.goodput_kbps > 3'500.0;
                    }}};
  }
  return spec;
}

ScenarioSpec sourceShapingSpec(const std::string& name, bool shaped) {
  ScenarioSpec spec;
  spec.name = name;
  const double reservation_bps = 1.7e6;  // slightly above the 1.6 Mb/s rate
  OfferedLoadTcpWorkload w;
  w.chunk_bytes = 50'000;
  w.chunk_interval_seconds = 0.250;
  w.chunk_count = 120;
  // Hold the 4-bursts-per-second schedule (a shaped burst itself takes
  // ~235 ms; sleeping a fixed interval would halve the offered rate).
  w.pace_absolute = true;
  if (shaped) w.shape_rate_bps = reservation_bps;
  w.seconds = 30.0;
  spec.workload = w;
  spec.measure_at_seconds = 30.0;
  spec.run_until_seconds = 31.0;
  FlowSpec flow;
  flow.rate_bps = reservation_bps;
  flow.match_dst = false;
  spec.flows.push_back(flow);
  spec.contention.enabled = true;
  if (shaped) {
    spec.checks = {
        {"shaping at the reserved rate delivers the full application rate",
         [](const ScenarioResult& res) {
           return res.goodput_kbps > 1'500.0;
         }}};
  }
  return spec;
}

ScenarioSpec pingLatencySpec(const std::string& name, bool low_latency) {
  ScenarioSpec spec;
  spec.name = name;
  spec.workload = PingLatencyWorkload{};
  spec.contention.enabled = true;  // bulk best effort fills the core queue
  spec.run_until_seconds = 120.0;
  if (low_latency) {
    ReservationSpec r;
    r.qos_class = gq::QosClass::kLowLatency;
    r.network_kbps = 200.0;
    r.max_message_size = 256;
    spec.reservations.push_back(r);
    spec.checks = {
        {"low-latency RTT approaches the uncongested path RTT",
         [](const ScenarioResult& res) {
           return !res.rtt_ms.empty() &&
                  util::percentile(res.rtt_ms, 50) < 5.0;
         }}};
  }
  return spec;
}

ScenarioSpec faultRecoverySpec(const std::string& name, bool recovery_on) {
  ScenarioSpec spec;
  spec.name = name;
  spec.rig.recovery = recovery_on;
  VisualizationWorkload w;
  w.frames_per_second = 100.0;
  w.frame_bytes = 37'500;  // 100 fps x 37.5 KB = 30 Mb/s
  w.seconds = 60.0;
  spec.workload = w;
  spec.contention.enabled = true;
  ReservationSpec r;
  r.network_kbps = 30'000.0;  // application rate, agent scales it up
  r.max_message_size = 37'500;
  spec.reservations.push_back(r);
  spec.faults = {fault(20.0, fault_target::kEdgeLink, kDown),
                 fault(23.0, fault_target::kEdgeLink, kUp)};
  spec.run_until_seconds = 60.0;
  const auto pre = [](const ScenarioResult& res) {
    return res.meanKbps(5.0, 20.0);
  };
  const auto post = [](const ScenarioResult& res) {
    return res.meanKbps(28.0, 60.0);
  };
  spec.checks = {{"delivers the reserved rate before the flap",
                  [pre](const ScenarioResult& res) {
                    return pre(res) > 0.9 * 30'000.0;
                  }}};
  if (recovery_on) {
    spec.checks.push_back(
        {"recovery restores most of the pre-flap goodput",
         [pre, post](const ScenarioResult& res) {
           return post(res) > 0.7 * pre(res);
         }});
    spec.checks.push_back(
        {"agent re-granted the reservation via the recovery loop",
         [](const ScenarioResult& res) {
           return res.qos_state == gq::QosRequestState::kGranted &&
                  res.recovery_attempts > 0;
         }});
  } else {
    spec.checks.push_back(
        {"without recovery the communicator stays degraded (best effort)",
         [](const ScenarioResult& res) {
           return res.qos_state == gq::QosRequestState::kDegraded;
         }});
  }
  return spec;
}

ScenarioSpec crashRecoverySpec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.rig.recovery = true;
  VisualizationWorkload w;
  w.frames_per_second = 100.0;
  w.frame_bytes = 37'500;  // 100 fps x 37.5 KB = 30 Mb/s
  w.seconds = 60.0;
  spec.workload = w;
  spec.contention.enabled = true;
  ReservationSpec r;
  r.network_kbps = 30'000.0;
  r.max_message_size = 37'500;
  spec.reservations.push_back(r);
  // Full control-plane resilience stack: journal + 2 s leases +
  // heartbeat probing. The crash at t=20 drops the agent and GARA state;
  // leases hard-expire enforcement ~2.25 s into the outage, and the
  // restart at t=25 replays the journal, reconciles every manager, and
  // re-issues the surviving QoS intent.
  spec.resil = ResilienceSpec{sim::Duration::seconds(2.0),
                              /*heartbeats=*/true};
  spec.agent_crashes.push_back(AgentCrashSpec{20.0, 5.0});
  spec.run_until_seconds = 60.0;
  const auto pre = [](const ScenarioResult& res) {
    return res.meanKbps(5.0, 20.0);
  };
  const auto post = [](const ScenarioResult& res) {
    return res.meanKbps(30.0, 60.0);
  };
  const auto counter = [](const ScenarioResult& res, const char* name) {
    return res.metrics == nullptr
               ? 0.0
               : res.metrics->counter(name).value();
  };
  spec.checks = {
      {"delivers the reserved rate before the crash",
       [pre](const ScenarioResult& res) { return pre(res) > 0.9 * 30'000.0; }},
      {"the control plane crashed and restarted exactly once",
       [counter](const ScenarioResult& res) {
         return counter(res, "resil.crashes") == 1.0 &&
                counter(res, "resil.restarts") == 1.0;
       }},
      {"the lease hard-expired enforcement during the outage",
       [counter](const ScenarioResult& res) {
         return counter(res, "resil.lease.expired") >= 1.0;
       }},
      {"restart re-issued the journalled QoS intent",
       [counter](const ScenarioResult& res) {
         return counter(res, "resil.reissued_intents") >= 1.0;
       }},
      {"restart re-converges to most of the pre-crash goodput",
       [pre, post](const ScenarioResult& res) {
         return post(res) > 0.7 * pre(res);
       }},
      {"agent ends re-granted after the restart",
       [](const ScenarioResult& res) {
         return res.qos_state == gq::QosRequestState::kGranted;
       }},
  };
  return spec;
}

ScenarioSpec adversarialCorruptionSpec(const std::string& name) {
  auto spec = offeredLoadFlowSpec(name, 55e6 * 1.06, 50e6, /*seconds=*/30.0);
  spec.faults.push_back(
      fault(0.0, fault_target::kEdgeCorrupt, kLossStart, 0.005));
  spec.checks = {
      // Conservation is an upper bound: a corrupted segment can also die
      // at the edge policer or a full queue before reaching the receiver,
      // so drops <= corrupted (+ duplicated echoes of them), never more.
      {"corrupted segments counted and dropped at the checksum wall",
       [](const ScenarioResult& res) {
         const auto drops = res.receiver_tcp.checksum_drops;
         return res.wire.corrupted > 0 && drops > 0 &&
                drops <= res.wire.corrupted + res.wire.duplicated;
       }},
      {"no corrupted bytes delivered (zero connection resets)",
       [](const ScenarioResult& res) { return res.receiver_tcp.resets == 0; }},
      {"goodput floor held through NewReno recovery",
       [](const ScenarioResult& res) { return res.goodput_kbps > 2'000.0; }},
  };
  return spec;
}

ScenarioSpec partitionHealSpec(const std::string& name) {
  auto spec = offeredLoadFlowSpec(name, 55e6 * 1.06, 50e6, /*seconds=*/30.0);
  spec.faults = {fault(8.0, fault_target::kEdgePartition, kDown),
                 fault(16.0, fault_target::kEdgePartition, kUp)};
  spec.checks = {
      {"partition blackholed premium egress traffic",
       [](const ScenarioResult& res) { return res.wire.drops_partition > 0; }},
      {"no spurious corruption or resets during the outage",
       [](const ScenarioResult& res) {
         return res.receiver_tcp.checksum_drops == 0 &&
                res.receiver_tcp.resets == 0;
       }},
      {"goodput reconverges after the heal",
       [](const ScenarioResult& res) {
         return res.meanKbps(22.0, 30.0) > 1'000.0;
       }},
  };
  return spec;
}

ScenarioSpec adaptPhaseShiftSpec(const std::string& name, bool adaptive) {
  ScenarioSpec spec;
  spec.name = name;
  AdaptiveTenantsWorkload w;
  TenantSpec t;
  t.name = "phased";
  // Deliberately small initial grant: a quarter of the 20 Mb/s offered
  // load, so the controller has real work to do in the first bulk phase.
  t.reservation_kbps = 4'000.0;
  t.floor_kbps = 2'000.0;
  t.ceiling_kbps = 40'000.0;
  t.offered_bps = 20e6;
  t.bulk_seconds = 10.0;
  t.idle_seconds = 10.0;
  w.tenants.push_back(t);
  w.seconds = 30.0;
  if (adaptive) w.controller.emplace();
  spec.workload = w;
  spec.contention.enabled = true;
  if (adaptive) {
    spec.checks = {
        {"controller grew the reservation toward demand (>= 2 grows)",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("phased");
           return t != nullptr && t->grows >= 2;
         }},
        {"idle phase reclaimed capacity (>= 2 shrinks)",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("phased");
           return t != nullptr && t->shrinks >= 2;
         }},
        {"first bulk phase converged above 10 Mb/s",
         [](const ScenarioResult& res) {
           return res.meanKbps(6.0, 10.0) > 10'000.0;
         }},
        {"second bulk phase re-converged above 6 Mb/s",
         [](const ScenarioResult& res) {
           return res.meanKbps(26.0, 30.0) > 6'000.0;
         }},
        {"reservation tracked demand to the end of the second bulk phase "
         "(>= 10 Mb/s)",
         [](const ScenarioResult& res) {
           // The controller's last tick at or before 30 s, when the tenant
           // stops sending: later ticks rightly shrink the idle grant.
           if (res.metrics == nullptr) return false;
           const auto& timelines = res.metrics->timelines();
           const auto it = timelines.find("adapt.phased.reservation_kbps");
           if (it == timelines.end()) return false;
           double kbps = 0.0;
           for (const auto& p : it->second.points()) {
             if (p.t_seconds <= 30.0) kbps = p.value;
           }
           return kbps >= 10'000.0;
         }},
    };
  }
  return spec;
}

ScenarioSpec adaptTwoTenantTradeoffSpec(const std::string& name,
                                        bool adaptive) {
  ScenarioSpec spec;
  spec.name = name;
  AdaptiveTenantsWorkload w;
  // Initial grants total 36 Mb/s against the 44 Mb/s premium share, so
  // both admissions succeed but the hungry tenant starts starved.
  TenantSpec hungry;
  hungry.name = "hungry";
  hungry.reservation_kbps = 8'000.0;
  hungry.floor_kbps = 4'000.0;
  hungry.ceiling_kbps = 40'000.0;
  hungry.offered_bps = 30e6;
  hungry.bulk_seconds = 0.0;  // always bulk: wants 30 Mb/s for the whole run
  hungry.port = 7100;
  w.tenants.push_back(hungry);
  TenantSpec fading;
  fading.name = "fading";
  fading.reservation_kbps = 28'000.0;
  fading.floor_kbps = 2'000.0;
  fading.ceiling_kbps = 30'000.0;
  fading.offered_bps = 30e6;
  fading.bulk_seconds = 8.0;  // bulk for 8 s, then idle for the rest
  fading.idle_seconds = 1'000.0;
  fading.port = 7200;
  w.tenants.push_back(fading);
  w.seconds = 30.0;
  if (adaptive) w.controller.emplace();
  spec.workload = w;
  spec.contention.enabled = true;
  if (adaptive) {
    spec.checks = {
        {"hungry tenant goodput lifted well above its 8 Mb/s static grant",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("hungry");
           return t != nullptr && t->goodput_kbps > 12'000.0;
         }},
        {"fading tenant's idle reservation reclaimed (final <= half)",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("fading");
           return t != nullptr && t->final_kbps > 0 &&
                  t->final_kbps <= 0.5 * t->initial_kbps;
         }},
        {"hungry tenant received re-granted capacity (>= 2 grows)",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("hungry");
           return t != nullptr && t->grows >= 2;
         }},
        {"fading tenant shrank (>= 2 shrinks)",
         [](const ScenarioResult& res) {
           const auto* t = res.tenant("fading");
           return t != nullptr && t->shrinks >= 2;
         }},
    };
  }
  return spec;
}

void registerPaperScenarios(ScenarioRegistry& registry) {
  registry.add({"fig1_under", "Figure 1: 50 Mb/s offered, 40 Mb/s reserved",
                "Figure 1 (§5)",
                [] { return offeredLoadFlowSpec("fig1_under", 40e6); }});
  registry.add({"fig1_adequate",
                "Figure 1 contrast: adequate (58 Mb/s) reservation",
                "Figure 1 (§5)",
                [] { return offeredLoadFlowSpec("fig1_adequate", 55e6 * 1.06); }});
  registry.add({"fig5_pingpong",
                "Figure 5: ping-pong, 40 Kb messages, 4 Mb/s raw reservation",
                "Figure 5 (§5.2)", [] {
                  return pingPongSpec("fig5_pingpong", 4'000.0, 40 * 1000 / 8);
                }});
  registry.add({"fig6_visualization",
                "Figure 6: 800 kb/s stream at the paper's 1.06x reservation",
                "Figure 6 (§5.3)", [] {
                  return visualizationSpec("fig6_visualization", 800.0 * 1.06,
                                           10.0, 10'000);
                }});
  registry.add({"fig7_frames_10fps",
                "Figure 7 top: 400 kb/s as 10 fps x 40 Kb frames",
                "Figure 7 (§5.4)", [] {
                  return burstTraceSpec("fig7_frames_10fps", 10.0,
                                        40'000 / 8);
                }});
  registry.add({"fig7_frames_1fps",
                "Figure 7 bottom: 400 kb/s as 1 fps x 400 Kb frames",
                "Figure 7 (§5.4)", [] {
                  return burstTraceSpec("fig7_frames_1fps", 1.0, 400'000 / 8);
                }});
  registry.add({"fig8_cpu_reservation",
                "Figure 8: CPU contention and a DSRT reservation",
                "Figure 8 (§5.5)", fig8Spec});
  registry.add({"fig9_combined",
                "Figure 9: combined network and CPU reservations",
                "Figure 9 (§5.5)", fig9Spec});
  registry.add({"table1_probe",
                "Table 1 probe: 400 kb/s at 10 fps, normal bucket",
                "Table 1 (§5.4)", [] {
                  return visualizationSpec("table1_probe", 500.0, 10.0, 5'000,
                                           20.0,
                                           net::TokenBucket::kNormalDivisor,
                                           /*snapshot_grace_seconds=*/1.0);
                }});
  registry.add({"ablation_bucket_divisor",
                "Bucket-depth ablation: 1 fps x 100 KB frames, divisor 40",
                "§4.3/§5.4", [] {
                  return visualizationSpec("ablation_bucket_divisor",
                                           800.0 * 1.3, 1.0, 100'000, 20.0,
                                           net::TokenBucket::kNormalDivisor,
                                           /*snapshot_grace_seconds=*/1.0);
                }});
  registry.add({"fd_critical_link",
                "Finite difference: premium QoS on the critical link",
                "§3", fdCriticalLinkSpec});
  registry.add({"ablation_priority_ef",
                "Priority-queuing ablation: EF-marked premium flow",
                "§5.1", [] {
                  return priorityQueuingSpec("ablation_priority_ef", true);
                }});
  registry.add({"ablation_priority_be",
                "Priority-queuing ablation: policed but best-effort-marked",
                "§5.1", [] {
                  return priorityQueuingSpec("ablation_priority_be", false);
                }});
  registry.add({"ablation_shaping_on",
                "Source-shaping ablation: shaped to the reserved rate",
                "§5.4", [] {
                  return sourceShapingSpec("ablation_shaping_on", true);
                }});
  registry.add({"ablation_shaping_off",
                "Source-shaping ablation: raw 50 KB bursts", "§5.4", [] {
                  return sourceShapingSpec("ablation_shaping_off", false);
                }});
  registry.add({"ablation_latency_ll",
                "Low-latency-class ablation: marked low latency", "§4.1",
                [] { return pingLatencySpec("ablation_latency_ll", true); }});
  registry.add({"ablation_latency_be",
                "Low-latency-class ablation: best effort", "§4.1",
                [] { return pingLatencySpec("ablation_latency_be", false); }});
  registry.add({"fault_recovery_on",
                "Link flap with the QoS agent's recovery on",
                "§4.2", [] {
                  return faultRecoverySpec("fault_recovery_on", true);
                }});
  registry.add({"fault_recovery_crash",
                "QoS agent crash + restart: journal replay, reconciliation, "
                "lease expiry, re-granted QoS",
                "§3.1/§4.2", [] {
                  return crashRecoverySpec("fault_recovery_crash");
                }});
  registry.add({"fault_recovery_off",
                "Link flap with recovery disabled (degrades to best effort)",
                "§4.2", [] {
                  return faultRecoverySpec("fault_recovery_off", false);
                }});
  registry.add({"fig1_corrupt_wire",
                "Adversarial wire: Figure-1 flow through 0.5% corruption",
                "DESIGN.md §14", [] {
                  return adversarialCorruptionSpec("fig1_corrupt_wire");
                }});
  registry.add({"partition_heal_reconverge",
                "Partition/heal: premium egress blackholed 8-16 s",
                "DESIGN.md §14", [] {
                  return partitionHealSpec("partition_heal_reconverge");
                }});
  registry.add({"adapt_phase_shift",
                "Adaptive QoS: phase-shifting tenant resized to demand",
                "DESIGN.md §15", [] {
                  return adaptPhaseShiftSpec("adapt_phase_shift");
                }});
  registry.add({"adapt_two_tenant_tradeoff",
                "Adaptive QoS: idle capacity re-granted across tenants",
                "DESIGN.md §15", [] {
                  return adaptTwoTenantTradeoffSpec(
                      "adapt_two_tenant_tradeoff");
                }});
}

}  // namespace mgq::scenario
