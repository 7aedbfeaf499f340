#include "scenario/builder.hpp"

#include <cstdint>
#include <utility>

#include "apps/rig_obs.hpp"
#include "gara/gara.hpp"
#include "gq/shaper.hpp"
#include "net/classifier.hpp"
#include "util/logging.hpp"

namespace mgq::scenario {
namespace {

using sim::Duration;
using sim::Task;
using sim::TimePoint;

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// Application-level rate for a network reservation spec: sweeps quote
/// the raw wire reservation (the paper's x-axis), so the agent's
/// protocol-overhead multiplier is divided back out.
double applicationKbps(const ReservationSpec& r) {
  if (!r.raw_network_rate) return r.network_kbps;
  return r.network_kbps / gq::protocolOverheadFactor(r.max_message_size);
}

/// Inline (pre-workload) reservations for the calling rank: premium goes
/// through the rig convenience (shared premium_attr, both-rank safe),
/// other classes through the scenario-owned attribute.
Task<> applyInlineReservations(BuiltScenario& b,
                               std::vector<ReservationSpec> reservations,
                               mpi::Comm& comm) {
  for (const auto& r : reservations) {
    if (r.qos_class == gq::QosClass::kPremium) {
      (void)co_await b.rig.requestPremium(comm, applicationKbps(r),
                                          r.max_message_size,
                                          r.bucket_divisor);
    } else {
      b.qos_attr.qosclass = r.qos_class;
      b.qos_attr.bandwidth_kbps = applicationKbps(r);
      b.qos_attr.max_message_size = r.max_message_size;
      b.qos_attr.bucket_divisor = r.bucket_divisor;
      comm.attrPut(b.rig.agent.keyval(), &b.qos_attr);
      co_await b.rig.agent.awaitSettled(comm);
    }
  }
}

std::vector<ReservationSpec> inlineReservations(const ScenarioSpec& spec) {
  std::vector<ReservationSpec> out;
  for (const auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kQosAttribute && r.at_seconds <= 0 &&
        r.network_kbps > 0) {
      out.push_back(r);
    }
  }
  return out;
}

Task<> offeredLoadServer(tcp::TcpListener& listener, tcp::TcpSocket*& out) {
  auto s = co_await listener.accept();
  out = s.get();
  // Verify the bulk pattern end to end: in clean runs verification only
  // reads (byte-identical behaviour), and under adversarial wire faults a
  // corrupted byte reaching the application turns into an observable
  // counted reset — the no-corrupted-delivery invariant watches for it.
  (void)co_await s->drain(INT64_MAX / 2, /*verify_pattern=*/true);
}

Task<> offeredLoadClient(BuiltScenario& b, OfferedLoadTcpWorkload w,
                         tcp::TcpConfig cfg) {
  auto s = co_await tcp::TcpSocket::connect(*b.rig.garnet.premium_src,
                                            b.rig.garnet.premium_dst->id(),
                                            w.port, cfg);
  const std::int64_t chunk =
      w.chunk_bytes > 0
          ? w.chunk_bytes
          : static_cast<std::int64_t>(w.offered_bps / 8.0 *
                                      w.chunk_interval_seconds);
  std::unique_ptr<gq::ShapedSocket> shaper;
  if (w.shaped) {
    shaper = std::make_unique<gq::ShapedSocket>(*s, w.shape_rate_bps,
                                                w.shape_burst_bytes);
  }
  const auto start = b.rig.sim.now();
  for (int i = 0; w.chunk_count <= 0 || i < w.chunk_count; ++i) {
    if (shaper != nullptr) {
      co_await shaper->sendBulk(chunk);
    } else {
      co_await s->sendBulk(chunk);
    }
    b.tcp_timeouts = s->stats().timeouts;
    if (w.pace_absolute) {
      const auto next =
          start + Duration::seconds(w.chunk_interval_seconds * (i + 1));
      if (next > b.rig.sim.now()) co_await b.rig.sim.delayUntil(next);
    } else {
      co_await b.rig.sim.delay(Duration::seconds(w.chunk_interval_seconds));
    }
  }
}

/// One adaptive tenant's sending half: connect, reserve a broker path
/// sized to the initial reservation, pace through a ShapedSocket, then
/// run the phase-shifting bulk schedule. Registration with the
/// controller happens here — after the path exists — so the control
/// loop's first tick already sees a live reservation.
Task<> adaptiveTenantClient(BuiltScenario& b,
                            BuiltScenario::AdaptiveTenantRun& t,
                            const AdaptationSpec& aspec,
                            double until_seconds) {
  auto& rig = b.rig;
  t.socket = co_await tcp::TcpSocket::connect(*rig.garnet.premium_src,
                                              rig.garnet.premium_dst->id(),
                                              t.spec.port,
                                              rig.world.tcpConfig());

  gara::ReservationRequest request;
  request.start = rig.sim.now();
  request.amount = t.spec.reservation_kbps * 1000.0;
  request.flow.src = rig.garnet.premium_src->id();
  request.flow.dst = rig.garnet.premium_dst->id();
  request.flow.dst_port = t.spec.port;
  request.flow.proto = net::Protocol::kTcp;
  t.path = b.adapt->broker->requestPath("premium-forward", request);
  if (!t.path) {
    MGQ_LOG(kWarn) << "scenario: tenant " << t.spec.name
                   << " path reservation failed: " << t.path.error;
  }
  t.initial_bps = request.amount;
  t.shaper = std::make_unique<gq::ShapedSocket>(
      *t.socket, request.amount,
      net::TokenBucket::depthForRate(request.amount,
                                     request.bucket_divisor));

  apps::PhasedBulkConfig pc;
  pc.offered_bps = t.spec.offered_bps;
  pc.chunk_bytes = t.spec.chunk_bytes;
  pc.bulk_seconds = t.spec.bulk_seconds;
  pc.idle_seconds = t.spec.idle_seconds;
  pc.phase_offset_seconds = t.spec.phase_offset_seconds;

  if (b.adapt->controller != nullptr && t.path) {
    adapt::QosController::TenantConfig tc;
    tc.name = t.spec.name;
    tc.policy.headroom = aspec.headroom;
    tc.policy.grow_threshold = aspec.grow_threshold;
    tc.policy.shrink_threshold = aspec.shrink_threshold;
    tc.policy.grow_multiplier = aspec.grow_multiplier;
    tc.policy.shrink_step = aspec.shrink_step;
    tc.policy.floor_bps = t.spec.floor_kbps * 1000.0;
    tc.policy.ceiling_bps = t.spec.ceiling_kbps * 1000.0;
    tc.policy.grow_cooldown_seconds = aspec.grow_cooldown_seconds;
    tc.policy.shrink_cooldown_seconds = aspec.shrink_cooldown_seconds;
    // Offered demand is the schedule's intent (a pure function of time),
    // not the sender's progress: a sender throttled by an undersized
    // reservation still shows the demand the controller should chase.
    tc.inputs.offered_bytes = [&rig, pc] {
      return apps::phasedBulkOfferedBytesAt(pc, rig.sim.now().toSeconds());
    };
    tc.inputs.delivered_bytes = [&t]() -> std::int64_t {
      return t.receiver != nullptr ? t.receiver->bytesDelivered() : 0;
    };
    tc.inputs.policer = [&t]() -> const net::TokenBucket* {
      if (t.path.handles.empty()) return nullptr;
      const auto& edge = t.path.handles.front();
      if (edge == nullptr || gara::isTerminal(edge->state())) return nullptr;
      return edge->bucket.get();
    };
    tc.shaper = t.shaper.get();
    t.controller_index = b.adapt->controller->addTenant(tc, &t.path);
  }

  co_await apps::phasedBulkSender(rig.sim, *t.shaper, pc,
                                  TimePoint::fromSeconds(until_seconds),
                                  &t.stats);
}

void wireAdaptiveTenants(BuiltScenario& b, const ScenarioSpec& spec,
                         const AdaptiveTenantsWorkload& w) {
  auto& rig = b.rig;
  b.adapt = std::make_unique<BuiltScenario::Adaptation>();
  auto& ad = *b.adapt;

  // Broker path: the enforcing forward edge plus an accounting-only view
  // of the shared core EF share, so multi-tenant admission accounts for
  // the interior link the tenants compete on.
  ad.core_ef = std::make_unique<gara::LinkAccountingManager>(
      rig.net_forward.slots().capacity());
  rig.gara.registerManager("core-ef", *ad.core_ef);
  ad.broker = std::make_unique<gara::BandwidthBroker>(rig.gara);
  ad.broker->definePath("premium-forward", {"net-forward", "core-ef"});
  ad.arbiter = std::make_unique<adapt::BandwidthArbiter>(rig.gara);
  ad.arbiter->setPoolResources({"net-forward", "core-ef"});

  if (spec.adaptation.enabled) {
    adapt::QosController::Config cc;
    cc.cadence_seconds = spec.adaptation.cadence_seconds;
    cc.ewma_alpha = spec.adaptation.ewma_alpha;
    ad.controller = std::make_unique<adapt::QosController>(
        rig.sim, *ad.broker, *ad.arbiter, cc);
    ad.controller->attachObservability(b.metrics.get(), b.trace.get());
    ad.controller->start();
  }

  const tcp::TcpConfig cfg = rig.world.tcpConfig();
  for (const auto& ts : w.tenants) {
    auto run = std::make_unique<BuiltScenario::AdaptiveTenantRun>();
    run->spec = ts;
    run->listener = std::make_unique<tcp::TcpListener>(
        *rig.garnet.premium_dst, ts.port, cfg);
    rig.sim.spawn(offeredLoadServer(*run->listener, run->receiver));
    rig.sim.spawn(
        adaptiveTenantClient(b, *run, spec.adaptation, w.seconds));
    ad.tenants.push_back(std::move(run));
  }

  b.delivered_fn = [&b]() -> std::int64_t {
    std::int64_t total = 0;
    for (const auto& t : b.adapt->tenants) {
      if (t->receiver != nullptr) total += t->receiver->bytesDelivered();
    }
    return total;
  };
}

void wirePingPong(BuiltScenario& b, const ScenarioSpec& spec,
                  const PingPongWorkload& w) {
  auto inl = inlineReservations(spec);
  b.rig.world.launch(
      [&b, w, inl = std::move(inl)](mpi::Comm& comm) -> Task<> {
        if (comm.rank() == 0) b.comm0 = &comm;
        // Bidirectional flow: both ranks request the reservation.
        co_await applyInlineReservations(b, inl, comm);
        co_await apps::runPingPong(comm, w.message_bytes,
                                   TimePoint::fromSeconds(w.seconds),
                                   comm.rank() == 0 ? &b.pingpong : nullptr);
      });
  b.delivered_fn = [&b] { return b.pingpong.bytes_received; };
}

void wireVisualization(BuiltScenario& b, const ScenarioSpec& spec,
                       const VisualizationWorkload& w) {
  auto inl = inlineReservations(spec);
  b.rig.world.launch(
      [&b, w, inl = std::move(inl)](mpi::Comm& comm) -> Task<> {
        if (comm.rank() == 0) {
          b.comm0 = &comm;
          co_await applyInlineReservations(b, inl, comm);
          apps::VisualizationConfig vc;
          vc.frames_per_second = w.frames_per_second;
          vc.frame_bytes = w.frame_bytes;
          if (w.cpu_seconds_per_frame > 0) {
            vc.cpu = &b.rig.sender_cpu;
            vc.cpu_job = b.cpu_job;
            vc.cpu_seconds_per_frame = w.cpu_seconds_per_frame;
          }
          co_await apps::visualizationSender(
              comm, vc, TimePoint::fromSeconds(w.seconds), &b.viz);
        } else {
          co_await apps::visualizationReceiver(comm, &b.viz);
        }
      });
  b.delivered_fn = [&b] { return b.viz.bytes_delivered; };
}

void wireOfferedLoad(BuiltScenario& b, const OfferedLoadTcpWorkload& w) {
  const tcp::TcpConfig cfg = w.use_world_tcp ? b.rig.world.tcpConfig() : w.tcp;
  b.listener = std::make_unique<tcp::TcpListener>(*b.rig.garnet.premium_dst,
                                                  w.port, cfg);
  b.rig.sim.spawn(offeredLoadServer(*b.listener, b.receiver));
  b.rig.sim.spawn(offeredLoadClient(b, w, cfg));
  b.delivered_fn = [&b]() -> std::int64_t {
    return b.receiver != nullptr ? b.receiver->bytesDelivered() : 0;
  };
}

void wirePingLatency(BuiltScenario& b, const ScenarioSpec& spec,
                     const PingLatencyWorkload& w) {
  auto inl = inlineReservations(spec);
  b.rig.world.launch(
      [&b, w, inl = std::move(inl)](mpi::Comm& comm) -> Task<> {
        if (comm.rank() == 0) b.comm0 = &comm;
        // Request/response flow: both ranks request the reservation.
        co_await applyInlineReservations(b, inl, comm);
        auto& sim = comm.world().simulator();
        if (comm.rank() == 0) {
          std::vector<std::uint8_t> payload(w.payload_bytes, 1);
          for (int i = 0; i < w.rounds; ++i) {
            const auto start = sim.now();
            co_await comm.send(1, 0, payload);
            (void)co_await comm.recv(1, 0);
            b.rtt_ms.push_back((sim.now() - start).toMillis());
            co_await sim.delay(Duration::seconds(w.gap_seconds));
          }
          co_await comm.send(1, 1, std::vector<std::uint8_t>());
        } else {
          for (;;) {
            mpi::Message m = co_await comm.recv(0, mpi::kAnyTag);
            if (m.tag == 1) co_return;
            co_await comm.send(0, 0, m.data);
          }
        }
      });
}

}  // namespace

std::unique_ptr<BuiltScenario> ScenarioBuilder::build(
    const ScenarioSpec& spec) {
  apps::GarnetRig::Config config = spec.rig;
  config.seed = spec.seed;
  auto built = std::make_unique<BuiltScenario>(config);
  BuiltScenario* b = built.get();
  auto& rig = built->rig;

  // Observability first, so probes see every later component.
  if (spec.observe) {
    built->metrics = std::make_shared<obs::MetricsRegistry>();
    built->trace = std::make_shared<obs::TraceBuffer>(16 * 1024);
    built->sampler = std::make_unique<obs::Sampler>(
        rig.sim, *built->metrics,
        Duration::seconds(spec.sample_interval_seconds));
    apps::attachRigObservability(rig, *built->metrics, *built->trace,
                                 *built->sampler, /*prefix=*/{});
    apps::addTcpFlowProbes(*built->sampler, rig.world, 0, 1, "flow.premium");
    built->sampler->start();
  }

  // Control-plane resilience: the journal must subscribe to GARA's
  // lifecycle events before any reservation exists, so wire it right
  // after observability and before every script below.
  const bool resil_on = spec.resil.enabled() || !spec.agent_crashes.empty();
  if (resil_on) {
    auto& resil = built->resil;
    resil.journal = std::make_unique<resil::StateJournal>(rig.sim);
    resil.journal->attach(rig.gara);
    if (spec.resil.lease.enabled) {
      resil::LeaseManager::Config lc;
      lc.default_duration =
          Duration::seconds(spec.resil.lease.duration_seconds);
      lc.renew_fraction = spec.resil.lease.renew_fraction;
      lc.grace = Duration::seconds(spec.resil.lease.grace_seconds);
      resil.leases = std::make_unique<resil::LeaseManager>(rig.sim,
                                                           rig.gara, lc);
      resil.leases->attachObservability(built->metrics.get(),
                                        built->trace.get());
      rig.agent.setReservationLease(
          Duration::seconds(spec.resil.lease.duration_seconds));
    }
    if (spec.resil.heartbeats) {
      resil::HeartbeatMonitor::Config hc;
      hc.interval = Duration::seconds(spec.resil.heartbeat_interval_seconds);
      hc.phi_threshold = spec.resil.phi_threshold;
      resil.heartbeats =
          std::make_unique<resil::HeartbeatMonitor>(rig.sim, hc);
      resil.heartbeats->attachObservability(built->metrics.get(),
                                            built->trace.get());
      resil::attachManagerHeartbeats(*resil.heartbeats, rig.gara);
    }
    resil.reconciler = std::make_unique<resil::Reconciler>(
        rig.gara, *resil.journal, resil.leases.get());
    resil.reconciler->attachObservability(built->metrics.get(),
                                          built->trace.get());
    rig.agent.attachJournal(resil.journal.get());

    resil.crash = [b] {
      auto& r = b->resil;
      if (r.crashed) return;
      r.crashed = true;
      r.journal->recordCrash("control plane crashed");
      b->rig.agent.crash();
      b->rig.gara.crash();
      if (r.leases != nullptr) r.leases->suspendRenewals();
      if (r.heartbeats != nullptr) r.heartbeats->suspend();
      if (b->metrics != nullptr) b->metrics->counter("resil.crashes").inc();
    };
    resil.restart = [b] {
      auto& r = b->resil;
      if (!r.crashed) return;
      r.crashed = false;
      r.journal->recordRestart("control plane restarted");
      // Replay: resume id allocation above everything ever journaled,
      // then reconcile divergence with the managers before re-issuing
      // intents — fail-and-refresh frees pre-crash slots so the re-put
      // reservations admit cleanly.
      b->rig.gara.restartWithNextId(r.journal->maxReservationId() + 1);
      r.last_reconcile = r.reconciler->reconcile(
          resil::Reconciler::UnclaimedPolicy::kFailAndRefresh);
      if (r.heartbeats != nullptr) r.heartbeats->resume();
      if (r.leases != nullptr) r.leases->resumeRenewals();
      const int reissued = b->rig.agent.reissueLiveIntents(
          *r.journal,
          [b](std::int32_t context, int world_rank) -> mpi::Comm* {
            if (world_rank < 0 || world_rank >= b->rig.world.size()) {
              return nullptr;
            }
            auto& comm = b->rig.world.worldComm(world_rank);
            return comm.context() == context ? &comm : nullptr;
          });
      if (b->metrics != nullptr) {
        b->metrics->counter("resil.restarts").inc();
      }
      if (b->trace != nullptr) {
        b->trace->record("resil", "restarted", 0,
                         static_cast<double>(reissued),
                         "journal replayed; live intents re-issued");
      }
    };
    for (const auto& c : spec.agent_crashes) {
      rig.sim.schedule(Duration::seconds(c.at_seconds),
                       [b] { b->resil.crash(); });
      rig.sim.schedule(
          Duration::seconds(c.at_seconds + c.restart_after_seconds),
          [b] { b->resil.restart(); });
    }
  }

  if (spec.contention.enabled) {
    if (spec.contention.at_seconds <= 0) {
      rig.startContention(spec.contention.rate_bps);
    } else {
      rig.sim.schedule(Duration::seconds(spec.contention.at_seconds),
                       [b, rate = spec.contention.rate_bps] {
                         b->rig.startContention(rate);
                       });
    }
  }

  // Hand-built premium flows: marking rules at the ingress edge.
  for (const auto& f : spec.flows) {
    if (f.rate_bps <= 0) continue;
    auto bucket = std::make_shared<net::TokenBucket>(
        rig.sim, f.rate_bps,
        net::TokenBucket::depthForRate(f.rate_bps, f.bucket_divisor));
    net::MarkingRule rule;
    rule.match.src = rig.garnet.premium_src->id();
    if (f.match_dst) rule.match.dst = rig.garnet.premium_dst->id();
    rule.match.proto = f.proto;
    rule.mark = f.mark;
    rule.bucket = std::move(bucket);
    rig.garnet.ingressEdgeInterface()->ingressPolicy().addRule(rule);
  }

  if (!spec.faults.empty()) {
    built->injector = std::make_unique<sim::FaultInjector>(
        rig.sim, spec.faults.front().injector_seed);
    built->edge_link =
        std::make_unique<net::LinkFault>(*rig.garnet.ingressEdgeInterface());
    built->injector->registerTarget("premium-edge-link",
                                    net::linkFaultTarget(*built->edge_link));
    for (const auto& f : spec.faults) {
      built->injector->scheduleFlap(f.target,
                                    TimePoint::fromSeconds(f.at_seconds),
                                    Duration::seconds(f.outage_seconds));
    }
  }

  // Adversarial data-plane conditions on the premium source's egress wire
  // (DESIGN.md §14). Each injector draws from its own splitmix-derived
  // stream of adv.seed, so enabling one category never perturbs another.
  if (spec.adversarial.enabled()) {
    const auto& adv = spec.adversarial;
    auto& egress = *rig.garnet.ingressEdgeInterface()->peer();
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
    if (adv.corrupt_rate > 0) {
      built->corrupt = std::make_unique<net::CorruptionInjector>(
          egress, adv.seed + 1 * kGolden);
      built->corrupt->start(adv.corrupt_rate);
    }
    if (adv.duplicate_rate > 0) {
      built->duplicate = std::make_unique<net::DuplicateInjector>(
          egress, adv.seed + 2 * kGolden);
      built->duplicate->start(adv.duplicate_rate);
    }
    if (adv.reorder_rate > 0) {
      built->reorder = std::make_unique<net::ReorderInjector>(
          egress, adv.seed + 3 * kGolden,
          Duration::seconds(adv.reorder_max_extra_seconds));
      built->reorder->start(adv.reorder_rate);
    }
    if (adv.partition_at_seconds >= 0) {
      built->partition = std::make_unique<net::PartitionFault>(egress);
      rig.sim.schedule(Duration::seconds(adv.partition_at_seconds),
                       [b] { b->partition->partition(); });
      if (adv.heal_at_seconds > adv.partition_at_seconds) {
        rig.sim.schedule(Duration::seconds(adv.heal_at_seconds),
                         [b] { b->partition->heal(); });
      }
    }
    if (adv.pool_ceiling_bytes > 0) {
      auto& pool = net::BufferPool::local();
      built->pool_ceiling_restore.previous = pool.liveBytesCeiling();
      built->pool_ceiling_restore.active = true;
      pool.setLiveBytesCeiling(adv.pool_ceiling_bytes);
    }
  }

  // CPU job for the workload (registered before any hog so job ids stay
  // those the golden catalog recorded), then the scripted competitors.
  const auto* viz = std::get_if<VisualizationWorkload>(&spec.workload);
  bool wants_cpu_job = viz != nullptr && viz->cpu_seconds_per_frame > 0;
  for (const auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kGaraCpu) wants_cpu_job = true;
  }
  if (wants_cpu_job) built->cpu_job = rig.sender_cpu.registerJob("viz");
  if (!spec.cpu_hogs.empty()) {
    built->hog = std::make_unique<cpu::CpuHog>(rig.sender_cpu, "competitor");
    for (const auto& h : spec.cpu_hogs) {
      rig.sim.schedule(Duration::seconds(h.at_seconds),
                       [b] { b->hog->start(); });
    }
  }

  // Scheduled (mid-run) reservations; inline ones are awaited by the
  // workload wiring below.
  for (const auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kGaraCpu) {
      rig.sim.schedule(Duration::seconds(r.at_seconds), [b, r] {
        gara::ReservationRequest request;
        request.start = b->rig.sim.now();
        request.amount = r.cpu_fraction;
        request.cpu_job = b->cpu_job;
        auto outcome = b->rig.gara.reserve("cpu-sender", request);
        if (!outcome) {
          MGQ_LOG(kWarn) << "scenario: CPU reservation failed: "
                         << outcome.error;
        }
      });
    } else if (r.at_seconds > 0) {
      rig.sim.schedule(Duration::seconds(r.at_seconds), [b, r] {
        auto& comm = b->rig.world.worldComm(0);
        b->rig.premium_attr.qosclass = r.qos_class;
        b->rig.premium_attr.bandwidth_kbps = applicationKbps(r);
        b->rig.premium_attr.max_message_size = r.max_message_size;
        b->rig.premium_attr.bucket_divisor = r.bucket_divisor;
        comm.attrPut(b->rig.agent.keyval(), &b->rig.premium_attr);
      });
    }
  }

  std::visit(
      Overloaded{
          [&](const PingPongWorkload& w) { wirePingPong(*b, spec, w); },
          [&](const VisualizationWorkload& w) {
            wireVisualization(*b, spec, w);
          },
          [&](const OfferedLoadTcpWorkload& w) { wireOfferedLoad(*b, w); },
          [&](const PingLatencyWorkload& w) { wirePingLatency(*b, spec, w); },
          [&](const AdaptiveTenantsWorkload& w) {
            wireAdaptiveTenants(*b, spec, w);
          },
      },
      spec.workload);

  // Workload-side bandwidth trace (read-only sampling: it cannot perturb
  // the workload's dynamics or RNG draws).
  if (built->delivered_fn) {
    built->bandwidth = std::make_unique<apps::BandwidthTrace>(
        rig.sim, [b] { return b->deliveredBytes(); },
        Duration::seconds(spec.sample_interval_seconds));
    built->bandwidth->start();
  }

  if (spec.trace_sequences) {
    rig.sim.schedule(Duration::seconds(spec.trace_attach_seconds), [b] {
      auto* socket = b->rig.world.connectionSocket(0, 1);
      if (socket != nullptr) b->tracer.attach(*socket);
    });
  }

  if (spec.measure_at_seconds > 0) {
    rig.sim.schedule(Duration::seconds(spec.measure_at_seconds +
                                       spec.snapshot_grace_seconds),
                     [b] { b->delivered_at_measure = b->deliveredBytes(); });
  }

  return built;
}

}  // namespace mgq::scenario
