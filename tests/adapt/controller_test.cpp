// QosController end to end against a real broker domain: demand-driven
// grow to demand x headroom, idle shrink to the floor with reclaimed
// accounting, refusal backoff that never fails the path, max-min sharing
// of reclaimed capacity across tenants, the degraded-communicator watch
// that keeps re-escalation capacity out of the grow pool, and a 64-tenant
// fleet that keeps resizing on cadence within the loop's event budget.
#include "adapt/controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/garnet_rig.hpp"

namespace mgq::adapt {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Two accounting links (edge + core, 40 Mb/s premium each) behind one
/// broker path; the arbiter pools both.
struct Domain {
  Domain() : gara(sim), edge(40e6), core(40e6), broker(gara), arbiter(gara) {
    gara.registerManager("edge", edge);
    gara.registerManager("core", core);
    broker.definePath("p", {"edge", "core"});
    arbiter.setPoolResources({"edge", "core"});
  }

  gara::BandwidthBroker::PathReservation reserve(double bps) {
    gara::ReservationRequest request;
    request.start = sim.now();
    request.amount = bps;
    auto path = broker.requestPath("p", request);
    EXPECT_TRUE(static_cast<bool>(path)) << path.error;
    return path;
  }

  /// Offered-bytes closure for a constant `bps` load starting at t=0.
  DemandEstimator::Inputs constantLoad(double bps) {
    return {[this, bps] {
              return static_cast<std::int64_t>(bps / 8.0 *
                                               sim.now().toSeconds());
            },
            {},
            {}};
  }

  sim::Simulator sim;
  gara::Gara gara;
  gara::LinkAccountingManager edge;
  gara::LinkAccountingManager core;
  gara::BandwidthBroker broker;
  BandwidthArbiter arbiter;
};

TEST(QosControllerTest, GrowsToDemandTimesHeadroomAndSettles) {
  Domain d;
  auto path = d.reserve(8e6);
  QosController controller(d.sim, d.broker, d.arbiter, {});
  QosController::TenantConfig tenant;
  tenant.name = "bulk";
  tenant.policy.floor_bps = 8e6;  // hold steady through the priming tick
  tenant.inputs = d.constantLoad(30e6);
  controller.addTenant(std::move(tenant), &path);
  controller.start();

  d.sim.runUntil(TimePoint::fromSeconds(20.0));
  auto views = controller.tenantViews();
  ASSERT_EQ(views.size(), 1u);
  // Converged near demand x headroom = 30 x 1.25 = 37.5 Mb/s, reached in
  // exactly four multiplier-bounded steps (8 -> 12.8 -> 20.48 -> 32.77 ->
  // ~36.5) — the EWMA is still a hair under 30 Mb/s at the last grow.
  EXPECT_NEAR(views[0].current_bps, 37.5e6, 1.5e6);
  EXPECT_EQ(views[0].grows, 4u);
  EXPECT_EQ(views[0].shrinks, 0u);
  EXPECT_EQ(views[0].refused, 0u);

  // Settled: a steady demand signal causes no further resizes, ever.
  d.sim.runUntil(TimePoint::fromSeconds(40.0));
  views = controller.tenantViews();
  EXPECT_EQ(views[0].grows, 4u);
  EXPECT_EQ(views[0].shrinks, 0u);
  EXPECT_GE(controller.ticks(), 79u);
}

TEST(QosControllerTest, IdleTenantShrinksTowardTheFloorAndReclaims) {
  Domain d;
  auto path = d.reserve(20e6);
  QosController controller(d.sim, d.broker, d.arbiter, {});
  QosController::TenantConfig tenant;
  tenant.name = "idle";
  tenant.policy.floor_bps = 2e6;
  controller.addTenant(std::move(tenant), &path);  // no inputs: demand 0
  controller.start();

  d.sim.runUntil(TimePoint::fromSeconds(10.0));
  const auto views = controller.tenantViews();
  ASSERT_EQ(views.size(), 1u);
  // Three cooldown-paced half steps: 20 -> 10 -> 5 -> 2.5 Mb/s. From
  // there the floor-clamped 2 Mb/s target sits inside the hysteresis
  // band (2 > 2.5 x 0.70), so the last half-step to the floor is never
  // taken — the band, not the floor, is where an idle tenant rests.
  EXPECT_DOUBLE_EQ(views[0].current_bps, 2.5e6);
  EXPECT_EQ(views[0].shrinks, 3u);
  EXPECT_EQ(views[0].grows, 0u);
  EXPECT_EQ(views[0].clamped, 3u);  // every step's raw target hit the floor
  EXPECT_DOUBLE_EQ(d.arbiter.reclaimedBps(), 17.5e6);
  EXPECT_DOUBLE_EQ(d.arbiter.headroomBps(d.sim.now()), 37.5e6);
}

TEST(QosControllerTest, FleetOf64TenantsResizesOnCadenceUnderOnePercentOfFig9) {
  // 64 tenants on one pooled path of 1 Gb/s links; demand alternates
  // busy/idle every 5 s, staggered by tenant parity, so half the fleet is
  // always growing while the other half shrinks.
  constexpr int kTenants = 64;
  constexpr double kHorizonSeconds = 120.0;
  constexpr double kPhaseSeconds = 5.0;
  constexpr double kPoolBps = 1e9;
  sim::Simulator simulator(/*seed=*/42);
  gara::Gara gara(simulator);
  gara::LinkAccountingManager edge(kPoolBps);
  gara::LinkAccountingManager core(kPoolBps);
  gara.registerManager("edge", edge);
  gara.registerManager("core", core);
  gara::BandwidthBroker broker(gara);
  broker.definePath("pool", {"edge", "core"});
  BandwidthArbiter arbiter(gara);
  arbiter.setPoolResources({"edge", "core"});

  QosController controller(simulator, broker, arbiter, {});
  std::vector<gara::BandwidthBroker::PathReservation> paths;
  paths.reserve(kTenants);  // the controller keeps pointers into it
  for (int i = 0; i < kTenants; ++i) {
    gara::ReservationRequest request;
    request.start = simulator.now();
    request.amount = 2e6;
    paths.push_back(broker.requestPath("pool", request));
    ASSERT_TRUE(static_cast<bool>(paths.back())) << paths.back().error;

    QosController::TenantConfig tenant;
    tenant.name = "tenant-" + std::to_string(i);
    tenant.policy.floor_bps = 1e6;
    const double busy_bps = 4e6 + (i % 7) * 1e6;
    // Offered bytes: the integral of a square wave at busy_bps. Even
    // tenants are busy in even phases, odd tenants in odd phases.
    tenant.inputs = {[&simulator, i, busy_bps] {
                       const double t = simulator.now().toSeconds();
                       const int phase = static_cast<int>(t / kPhaseSeconds);
                       const int busy_phases =
                           (i % 2 == 0) ? (phase + 1) / 2 : phase / 2;
                       double busy_seconds = busy_phases * kPhaseSeconds;
                       if ((phase + i) % 2 == 0) {
                         busy_seconds += t - phase * kPhaseSeconds;
                       }
                       return static_cast<std::int64_t>(busy_bps / 8.0 *
                                                        busy_seconds);
                     },
                     {},
                     {}};
    controller.addTenant(std::move(tenant), &paths.back());
  }
  controller.start();

  for (int s = 1; s <= static_cast<int>(kHorizonSeconds); ++s) {
    simulator.runUntil(TimePoint::fromSeconds(s));
    ASSERT_LE(edge.slots().usedAt(simulator.now()), kPoolBps) << "t=" << s;
    ASSERT_LE(core.slots().usedAt(simulator.now()), kPoolBps) << "t=" << s;
  }

  const auto expected_ticks = static_cast<std::uint64_t>(
      kHorizonSeconds / controller.config().cadence_seconds);
  EXPECT_GE(controller.ticks(), expected_ticks - 1);
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  for (const auto& view : controller.tenantViews()) {
    grows += view.grows;
    shrinks += view.shrinks;
  }
  EXPECT_GT(grows, 0u);
  EXPECT_GT(shrinks, 0u);
  // One timer event per tick, whatever the tenant count: a fig9_combined
  // run executes 4,641,750 events, and the loop stays under 1% of that.
  EXPECT_LT(simulator.eventsExecuted(), 46'417u);
}

TEST(QosControllerTest, RefusedGrowBacksOffAndNeverFailsThePath) {
  // A 10 Mb/s bottleneck on the path that the arbiter does not pool:
  // the arbiter grants capacity the broker then refuses, exercising the
  // refusal path — rollback, backoff, reservation untouched and active.
  Domain d;
  gara::LinkAccountingManager tight(10e6);
  d.gara.registerManager("tight", tight);
  d.broker.definePath("tp", {"edge", "tight", "core"});
  gara::ReservationRequest request;
  request.start = d.sim.now();
  request.amount = 8e6;
  auto path = d.broker.requestPath("tp", request);
  ASSERT_TRUE(static_cast<bool>(path)) << path.error;

  QosController controller(d.sim, d.broker, d.arbiter, {});
  QosController::TenantConfig tenant;
  tenant.name = "blocked";
  tenant.policy.floor_bps = 8e6;
  tenant.inputs = d.constantLoad(30e6);
  controller.addTenant(std::move(tenant), &path);
  controller.start();

  d.sim.runUntil(TimePoint::fromSeconds(16.0));
  const auto views = controller.tenantViews();
  ASSERT_EQ(views.size(), 1u);
  // Every attempted grow (8 -> 12.8 Mb/s) is refused by the tight leg.
  // Backoff doubles the grow cooldown per refusal, so 16 s sees a
  // handful of attempts — not one per tick.
  EXPECT_EQ(views[0].grows, 0u);
  EXPECT_GE(views[0].refused, 3u);
  EXPECT_LE(views[0].refused, 6u);
  // The reservation survives at its original amount on every leg.
  EXPECT_DOUBLE_EQ(views[0].current_bps, 8e6);
  for (const auto& leg : path.handles) {
    EXPECT_EQ(leg->state(), gara::ReservationState::kActive);
    EXPECT_DOUBLE_EQ(leg->request().amount, 8e6);
  }
  // Rollback restored the wide legs' slots: pool headroom is untouched.
  EXPECT_DOUBLE_EQ(d.arbiter.headroomBps(d.sim.now()), 32e6);
}

TEST(QosControllerTest, ReclaimedCapacityFundsTheHungryTenant) {
  Domain d;
  auto hungry_path = d.reserve(8e6);
  auto fading_path = d.reserve(28e6);  // 36 of 40 Mb/s admitted

  QosController controller(d.sim, d.broker, d.arbiter, {});
  QosController::TenantConfig hungry;
  hungry.name = "hungry";
  hungry.policy.floor_bps = 8e6;
  hungry.inputs = d.constantLoad(60e6);  // wants far more than the link
  controller.addTenant(std::move(hungry), &hungry_path);
  QosController::TenantConfig fading;
  fading.name = "fading";
  fading.policy.floor_bps = 2e6;
  controller.addTenant(std::move(fading), &fading_path);  // demand 0
  controller.start();

  d.sim.runUntil(TimePoint::fromSeconds(20.0));
  const auto views = controller.tenantViews();
  ASSERT_EQ(views.size(), 2u);
  // The fading tenant's shrinks (28 -> 14 -> 7 -> 3.5 -> 2 Mb/s) are the
  // only source of new capacity, and the hungry tenant absorbs all of it:
  // the link ends fully subscribed, split 38 / 2.
  EXPECT_NEAR(views[0].current_bps, 38e6, 1.0);
  EXPECT_DOUBLE_EQ(views[1].current_bps, 2e6);
  EXPECT_NEAR(d.arbiter.reclaimedBps(), 26e6, 1.0);
  EXPECT_EQ(views[1].shrinks, 4u);
  EXPECT_GE(views[0].grows, 4u);
  // A zero grant on a full pool is a silent skip, never a refusal.
  EXPECT_EQ(views[0].refused, 0u);
  EXPECT_NEAR(d.arbiter.headroomBps(d.sim.now()), 0.0, 1.0);
}

gq::QosAgent::RecoveryPolicy fastRetries(int max_retries) {
  gq::QosAgent::RecoveryPolicy policy;
  policy.max_retries = max_retries;
  policy.initial_backoff = Duration::millis(100);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = Duration::millis(500);
  policy.jitter = 0.0;
  policy.degrade_to_best_effort = true;
  policy.reescalate_interval = Duration::millis(500);
  return policy;
}

struct DegradedRaceResult {
  gq::QosRequestState state = gq::QosRequestState::kNone;
  double tenant_bps = 0.0;
  /// The re-granted premium reservation's raw amount (0 unless granted).
  double premium_bps = 0.0;
};

/// A degraded premium comm races the controller for returning capacity:
/// its leg is preempted at t=5 with the remaining premium share blocked,
/// the blocker is cancelled at t=5.95, and an aggressive tenant's demand
/// turns on at t=6. Only the watch keeps the agent's ~10.3 Mb/s raw
/// reservation (10 Mb/s application rate plus protocol overhead) out of
/// the grow pool long enough for the 500 ms re-escalation probe to land.
DegradedRaceResult runDegradedRace(bool watch) {
  apps::GarnetRig::Config config;
  config.recovery = fastRetries(2);
  apps::GarnetRig rig(config);
  mpi::Comm* comm0 = nullptr;
  bool granted = false;
  rig.world.launch([&](mpi::Comm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      comm0 = &comm;
      granted = co_await rig.requestPremium(comm, 10'000.0, 37'500);
    }
    co_return;
  });
  rig.sim.runUntil(TimePoint::fromSeconds(2.0));
  EXPECT_TRUE(granted);
  EXPECT_NE(comm0, nullptr);

  gara::BandwidthBroker broker(rig.gara);
  broker.definePath("fwd", {"net-forward"});
  BandwidthArbiter arbiter(rig.gara);
  arbiter.setPoolResources({"net-forward"});
  gara::ReservationRequest request;
  request.start = rig.sim.now();
  request.amount = 4e6;
  auto path = broker.requestPath("fwd", request);
  EXPECT_TRUE(static_cast<bool>(path)) << path.error;

  QosController::Config cc;
  cc.cadence_seconds = 0.1;  // much faster than the agent's 500 ms probe
  QosController controller(rig.sim, broker, arbiter, cc);
  QosController::TenantConfig tenant;
  tenant.name = "tenant";
  tenant.policy.floor_bps = 4e6;
  tenant.policy.grow_multiplier = 8.0;
  tenant.policy.grow_cooldown_seconds = 0.1;
  tenant.inputs = {[&rig] {
                     const double t = rig.sim.now().toSeconds();
                     return static_cast<std::int64_t>(
                         t <= 6.0 ? 0.0 : 100e6 / 8.0 * (t - 6.0));
                   },
                   {},
                   {}};
  controller.addTenant(std::move(tenant), &path);
  if (watch) controller.watchDegraded(rig.agent, *comm0, 12e6);
  controller.start();

  gara::ReservationHandle blocker;
  rig.sim.schedule(Duration::seconds(3), [&] {
    auto held = rig.agent.status(*comm0).reservations;
    ASSERT_EQ(held.size(), 1u);
    rig.gara.fail(held[0], "preempted");
    gara::ReservationRequest block;
    block.start = rig.sim.now();
    block.amount = rig.net_forward.slots().capacity() - 4e6;
    auto outcome = rig.gara.reserve("net-forward", block);
    ASSERT_TRUE(static_cast<bool>(outcome)) << outcome.error;
    blocker = outcome.handle;
  });
  rig.sim.schedule(Duration::seconds(3.95), [&] { rig.gara.cancel(blocker); });
  rig.sim.runUntil(TimePoint::fromSeconds(10.0));

  const auto views = controller.tenantViews();
  DegradedRaceResult result;
  const auto status = rig.agent.status(*comm0);
  result.state = status.state;
  if (!views.empty()) result.tenant_bps = views[0].current_bps;
  if (!status.reservations.empty()) {
    result.premium_bps = status.reservations[0]->request().amount;
  }
  return result;
}

TEST(QosControllerTest, DegradedWatchReservesCapacityForReescalation) {
  // Without the watch the 100 ms control loop wins the race: the tenant
  // swallows the whole 44 Mb/s premium share before the 500 ms probe
  // fires, and the communicator is stuck degraded.
  const auto without = runDegradedRace(false);
  EXPECT_EQ(without.state, gq::QosRequestState::kDegraded);
  EXPECT_NEAR(without.tenant_bps, 44e6, 1.0);

  // With the watch, 12 Mb/s stays out of the grow pool while the comm is
  // degraded: the probe re-grants, and the tenant ends with exactly the
  // premium share the re-granted reservation left behind.
  const auto with = runDegradedRace(true);
  EXPECT_EQ(with.state, gq::QosRequestState::kGranted);
  EXPECT_GT(with.premium_bps, 0.0);
  EXPECT_NEAR(with.tenant_bps, 44e6 - with.premium_bps, 1.0);
}

}  // namespace
}  // namespace mgq::adapt
