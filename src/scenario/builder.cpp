#include "scenario/builder.hpp"

#include <cstdint>
#include <utility>
#include <variant>

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

/// Period of the rig probes and the workload's bandwidth trace.
constexpr Duration kSampleInterval = Duration::seconds(1.0);
/// When Figure 7's sequence tracer attaches: once the connection exists.
constexpr Duration kTraceAttachAt = Duration::seconds(0.5);
/// Offered-load stream: listener port, and the end-system shaper's burst.
constexpr net::PortId kOfferedLoadPort = 7000;
constexpr std::int64_t kShapeBurstBytes = 5'000;

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
                                            kOfferedLoadPort, cfg);
  const std::int64_t chunk =
      w.chunk_bytes > 0
          ? w.chunk_bytes
          : static_cast<std::int64_t>(w.offered_bps / 8.0 *
                                      w.chunk_interval_seconds);
  std::unique_ptr<gq::ShapedSocket> shaper;
  if (w.shape_rate_bps > 0) {
    shaper = std::make_unique<gq::ShapedSocket>(*s, w.shape_rate_bps,
                                                kShapeBurstBytes);
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

  if (b.adapt->controller != nullptr && t.path) {
    adapt::QosController::TenantConfig tc;
    tc.name = t.spec.name;
    tc.policy = b.adapt->controller->config().policy;
    tc.policy.floor_bps = t.spec.floor_kbps * 1000.0;
    tc.policy.ceiling_bps = t.spec.ceiling_kbps * 1000.0;
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
                                  TimePoint::fromSeconds(until_seconds));
}

void wireAdaptiveTenants(BuiltScenario& b, const AdaptiveTenantsWorkload& w) {
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

  if (w.controller) {
    ad.controller = std::make_unique<adapt::QosController>(
        rig.sim, *ad.broker, *ad.arbiter, *w.controller);
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
    rig.sim.spawn(adaptiveTenantClient(b, *run, w.seconds));
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
                                                  kOfferedLoadPort, cfg);
  b.rig.sim.spawn(offeredLoadServer(*b.listener, b.receiver));
  b.rig.sim.spawn(offeredLoadClient(b, w, cfg));
  b.delivered_fn = [&b]() -> std::int64_t {
    return b.receiver != nullptr ? b.receiver->bytesDelivered() : 0;
  };
}

void wirePingLatency(BuiltScenario& b, const ScenarioSpec& spec) {
  using W = PingLatencyWorkload;
  auto inl = inlineReservations(spec);
  b.rig.world.launch(
      [&b, inl = std::move(inl)](mpi::Comm& comm) -> Task<> {
        if (comm.rank() == 0) b.comm0 = &comm;
        // Request/response flow: both ranks request the reservation.
        co_await applyInlineReservations(b, inl, comm);
        auto& sim = comm.world().simulator();
        if (comm.rank() == 0) {
          std::vector<std::uint8_t> payload(W::kPayloadBytes, 1);
          for (int i = 0; i < W::kRounds; ++i) {
            const auto start = sim.now();
            co_await comm.send(1, 0, payload);
            (void)co_await comm.recv(1, 0);
            b.rtt_ms.push_back((sim.now() - start).toMillis());
            co_await sim.delay(Duration::seconds(W::kGapSeconds));
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

void wireFiniteDifference(BuiltScenario& b, const ScenarioSpec& spec) {
  using W = FiniteDifferenceWorkload;
  auto inl = inlineReservations(spec);
  b.rig.world.launch([&b, inl = std::move(inl)](mpi::Comm& comm) -> Task<> {
    const int rank = comm.rank();
    if (rank == 0) b.comm0 = &comm;
    // The two ends of the critical link target it with a pair
    // communicator (§3: "by careful creation of appropriate
    // communicators, target ... specific links").
    constexpr int kBoundary = W::kRanksPerHost - 1;
    if (!inl.empty() && (rank == kBoundary || rank == kBoundary + 1)) {
      mpi::Comm pair = co_await comm.createPair(
          rank == kBoundary ? kBoundary + 1 : kBoundary);
      co_await applyInlineReservations(b, inl, pair);
    }
    co_await comm.barrier();
    const auto start = b.rig.sim.now();
    apps::FiniteDifferenceConfig config;
    config.global_rows = W::kRows;
    config.cols = W::kCols;
    config.iterations = W::kIterations;
    const auto result = co_await apps::runFiniteDifference(comm, config);
    co_await comm.barrier();
    if (rank == 0) {
      b.fd = result;
      b.fd_seconds = (b.rig.sim.now() - start).toSeconds();
      b.rig.sim.stop();
    }
  });
}

}  // namespace

std::unique_ptr<BuiltScenario> ScenarioBuilder::build(
    const ScenarioSpec& spec) {
  apps::GarnetRig::Config config = spec.rig;
  config.seed = spec.seed;
  const int ranks_per_host =
      std::holds_alternative<FiniteDifferenceWorkload>(spec.workload)
          ? FiniteDifferenceWorkload::kRanksPerHost
          : 1;
  auto built = std::make_unique<BuiltScenario>(config, ranks_per_host);
  BuiltScenario* b = built.get();
  auto& rig = built->rig;

  // Observability first, so probes see every later component.
  if (spec.observe) {
    built->metrics = std::make_shared<obs::MetricsRegistry>();
    built->trace = std::make_shared<obs::TraceBuffer>(16 * 1024);
    built->sampler = std::make_unique<obs::Sampler>(rig.sim, *built->metrics,
                                                    kSampleInterval);
    apps::attachRigObservability(rig, *built->metrics, *built->trace,
                                 *built->sampler);
    apps::addPremiumFlowProbes(*built->sampler, rig);
    built->sampler->start();
  }

  // Control-plane resilience: the journal must subscribe to GARA's
  // lifecycle events before any reservation exists, so wire it right
  // after observability and before every script below.
  if (spec.resil) {
    built->resil = std::make_unique<BuiltScenario::ControlPlaneResilience>();
    auto& resil = *built->resil;
    resil.journal = std::make_unique<resil::StateJournal>(rig.sim);
    resil.journal->attach(rig.gara);
    if (const auto& lease = spec.resil->lease) {
      resil.leases =
          std::make_unique<resil::LeaseManager>(rig.sim, rig.gara, *lease);
      resil.leases->attachObservability(built->metrics.get(),
                                        built->trace.get());
      rig.agent.setReservationLease(*lease);
    }
    if (spec.resil->heartbeats) {
      resil.heartbeats = std::make_unique<resil::HeartbeatMonitor>(rig.sim);
      resil.heartbeats->attachObservability(built->metrics.get(),
                                            built->trace.get());
      resil::attachManagerHeartbeats(*resil.heartbeats, rig.gara);
    }
    resil.reconciler = std::make_unique<resil::Reconciler>(
        rig.gara, *resil.journal, resil.leases.get());
    resil.reconciler->attachObservability(built->metrics.get(),
                                          built->trace.get());
    rig.agent.attachJournal(resil.journal.get());
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
    rule.match.proto = net::Protocol::kTcp;
    rule.mark = f.mark;
    rule.bucket = std::move(bucket);
    rig.garnet.ingressEdgeInterface()->ingressPolicy().addRule(rule);
  }

  // CPU job for the workload (registered before any hog so job ids stay
  // those the golden catalog recorded), then the fault plan: scripted
  // agent crashes lowered to qos-agent episodes, then spec.faults.
  const auto* viz = std::get_if<VisualizationWorkload>(&spec.workload);
  bool wants_cpu_job = viz != nullptr && viz->cpu_seconds_per_frame > 0;
  for (const auto& r : spec.reservations) {
    if (r.via == ReservationSpec::Via::kGaraCpu) wants_cpu_job = true;
  }
  if (wants_cpu_job) built->cpu_job = rig.sender_cpu.registerJob("viz");
  std::vector<sim::FaultEvent> plan;
  for (const auto& c : spec.agent_crashes) {
    plan.push_back({TimePoint::fromSeconds(c.at_seconds),
                    fault_target::kQosAgent, sim::FaultAction::kDown});
    plan.push_back(
        {TimePoint::fromSeconds(c.at_seconds + c.restart_after_seconds),
         fault_target::kQosAgent, sim::FaultAction::kUp});
  }
  plan.insert(plan.end(), spec.faults.begin(), spec.faults.end());
  if (!plan.empty()) {
    registerFaultTargets(*built, plan, spec.fault_seed);
    built->injector.schedulePlan(plan);
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
          [&](const PingLatencyWorkload&) { wirePingLatency(*b, spec); },
          [&](const AdaptiveTenantsWorkload& w) {
            wireAdaptiveTenants(*b, w);
          },
          [&](const FiniteDifferenceWorkload&) {
            wireFiniteDifference(*b, spec);
          },
      },
      spec.workload);

  // Workload-side bandwidth trace (read-only sampling: it cannot perturb
  // the workload's dynamics or RNG draws).
  if (built->delivered_fn) {
    built->bandwidth = std::make_unique<apps::BandwidthTrace>(
        rig.sim, [b] { return b->deliveredBytes(); }, kSampleInterval);
    built->bandwidth->start();
  }

  if (spec.trace_sequences) {
    rig.sim.schedule(kTraceAttachAt, [b] {
      if (auto* socket = b->rig.premiumSocket()) b->tracer.attach(*socket);
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
