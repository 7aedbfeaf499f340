// QoS-agent failure recovery: a lost reservation is retried with
// exponential backoff, degrades transparently to best effort when retries
// are exhausted, and re-escalates to premium when capacity returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "apps/garnet_rig.hpp"
#include "gara/flaky_resource_manager.hpp"
#include "net/faults.hpp"
#include "obs/trace.hpp"

namespace mgq::gq {
namespace {

using apps::GarnetRig;
using sim::Duration;
using sim::Task;
using sim::TimePoint;

GarnetRig::Config rigConfig(bool recovery) {
  GarnetRig::Config config;
  config.recovery = recovery;
  return config;
}

/// The longest the retry loop takes from a loss to degrading: every
/// backoff at its +kJitter bound.
double maxRetrySeconds() {
  double total = 0.0;
  double backoff = QosAgent::kInitialBackoff.toSeconds();
  for (int i = 0; i < QosAgent::kMaxRetries; ++i) {
    total += std::min(backoff, QosAgent::kMaxBackoff.toSeconds());
    backoff *= QosAgent::kBackoffMultiplier;
  }
  return total * (1.0 + QosAgent::kJitter);
}

/// Rig with a granted 10 Mb/s premium reservation on comm rank 0; the
/// launch bodies settle the request and park rank 1.
struct Harness {
  explicit Harness(bool recovery) : rig(rigConfig(recovery)) {
    rig.world.launch([this](mpi::Comm& comm) -> Task<> {
      if (comm.rank() == 0) {
        comm0 = &comm;
        granted = co_await rig.requestPremium(comm, 10'000.0, 37'500);
      }
      co_return;
    });
  }
  QosStatus status() { return rig.agent.status(*comm0); }
  /// Fails the (single) held network leg with `reason`.
  void failLeg(const std::string& reason) {
    auto held = status().reservations;
    ASSERT_EQ(held.size(), 1u);
    rig.gara.fail(held[0], reason);
  }

  /// Occupies the whole premium share so every retry is denied by
  /// admission control.
  gara::ReservationHandle blockPremiumShare() {
    gara::ReservationRequest request;
    request.start = rig.sim.now();
    request.amount = rig.net_forward.slots().capacity();
    auto outcome = rig.gara.reserve("net-forward", request);
    EXPECT_TRUE(static_cast<bool>(outcome)) << outcome.error;
    return outcome.handle;
  }

  GarnetRig rig;
  mpi::Comm* comm0 = nullptr;
  bool granted = false;
};

TEST(QosRecoveryTest, LostReservationIsRetriedAndRegranted) {
  Harness h(/*recovery=*/true);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  h.rig.sim.schedule(Duration::seconds(3), [&] { h.failLeg("injected"); });
  h.rig.sim.runUntil(TimePoint::fromSeconds(5.2));
  // Capacity is free, so the first backed-off retry (250 ms ± 10%)
  // already re-grants.
  EXPECT_EQ(h.status().state, QosRequestState::kRecovering);
  h.rig.sim.runUntil(TimePoint::fromSeconds(6));
  const auto status = h.status();
  EXPECT_EQ(status.state, QosRequestState::kGranted);
  EXPECT_GE(status.recovery_attempts, 1);
  EXPECT_TRUE(status.error.empty());
  ASSERT_EQ(status.reservations.size(), 1u);
  EXPECT_EQ(status.reservations[0]->state(),
            gara::ReservationState::kActive);
}

TEST(QosRecoveryTest, DefaultPolicyDegradesForGood) {
  Harness h(/*recovery=*/false);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  h.rig.sim.schedule(Duration::seconds(3), [&] { h.failLeg("link lost"); });
  h.rig.sim.runUntil(TimePoint::fromSeconds(30));
  const auto status = h.status();
  EXPECT_EQ(status.state, QosRequestState::kDegraded);
  EXPECT_EQ(status.error, "link lost");
  EXPECT_TRUE(status.reservations.empty());
  EXPECT_EQ(status.recovery_attempts, 0);
  // Enforcement is fully gone: traffic runs best effort, unpoliced.
  EXPECT_EQ(
      h.rig.garnet.ingressEdgeInterface()->ingressPolicy().ruleCount(), 0u);
}

TEST(QosRecoveryTest, ExhaustedRetriesDegradeThenReescalate) {
  Harness h(/*recovery=*/true);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  // At t=5: fail the leg, then immediately occupy the whole premium share
  // so every retry is denied by admission control.
  gara::ReservationHandle blocker;
  h.rig.sim.schedule(Duration::seconds(3), [&] {
    h.failLeg("preempted");
    blocker = h.blockPremiumShare();
  });
  // Every retry is denied; the request degrades and keeps probing every
  // kReescalateInterval.
  const double degraded_by = 5.0 + maxRetrySeconds();
  h.rig.sim.runUntil(TimePoint::fromSeconds(degraded_by));
  EXPECT_EQ(h.status().state, QosRequestState::kDegraded);
  EXPECT_GE(h.status().recovery_attempts, QosAgent::kMaxRetries);

  // Capacity returns: the next background probe re-escalates to premium.
  h.rig.gara.cancel(blocker);
  h.rig.sim.runUntil(TimePoint::fromSeconds(
      degraded_by +
      QosAgent::kReescalateInterval.toSeconds() * (1.0 + QosAgent::kJitter)));
  const auto status = h.status();
  EXPECT_EQ(status.state, QosRequestState::kGranted);
  EXPECT_GE(status.recovery_attempts, QosAgent::kMaxRetries + 1);
  ASSERT_EQ(status.reservations.size(), 1u);
  EXPECT_EQ(status.reservations[0]->state(),
            gara::ReservationState::kActive);
}

TEST(QosRecoveryTest, LinkFlapRecoveryEndToEnd) {
  // The full chain: interface down -> manager failure report -> kFailed ->
  // agent retries (denied while the attachment is down) -> link restored
  // -> retry granted.
  Harness h(/*recovery=*/true);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  // Link down at t=5, restored at t=6.
  net::LinkFault link(*h.rig.garnet.ingressEdgeInterface());
  h.rig.sim.schedule(Duration::seconds(3), [&] { link.fail(); });
  h.rig.sim.schedule(Duration::seconds(4), [&] { link.restore(); });
  h.rig.sim.runUntil(TimePoint::fromSeconds(5.5));
  EXPECT_NE(h.status().state, QosRequestState::kGranted)
      << "reservation must be lost while the attachment is down";
  h.rig.sim.runUntil(TimePoint::fromSeconds(12));
  const auto status = h.status();
  EXPECT_EQ(status.state, QosRequestState::kGranted);
  EXPECT_GE(status.recovery_attempts, 1);
  EXPECT_EQ(h.rig.net_forward.activeOn(
                *h.rig.garnet.ingressEdgeInterface()),
            1u);
}

TEST(QosRecoveryTest, RetriesAreCappedAtMaxRetries) {
  Harness h(/*recovery=*/true);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);
  // The attempt count at the moment the retry loop gives up.
  int attempts_at_degrade = -1;
  h.rig.agent.setStateObserver(
      [&](std::int32_t, QosRequestState, QosRequestState to) {
        if (to == QosRequestState::kDegraded) {
          attempts_at_degrade = h.status().recovery_attempts;
        }
      });

  // Fail the held leg, then immediately occupy the whole premium share so
  // every retry is denied, and let the loop run far past its budget.
  h.failLeg("preempted");
  h.blockPremiumShare();
  h.rig.sim.runUntil(TimePoint::fromSeconds(60));

  EXPECT_EQ(h.status().state, QosRequestState::kDegraded);
  EXPECT_EQ(attempts_at_degrade, QosAgent::kMaxRetries)
      << "retries must stop at the cap";
  h.rig.agent.setStateObserver({});
}

TEST(QosRecoveryTest, BackoffDoublesThenSaturatesAtMaxBackoff) {
  // Retry n waits kInitialBackoff × kBackoffMultiplier^n, capped at
  // kMaxBackoff, each scaled by the ±kJitter draw; once degraded, the
  // probes come every kReescalateInterval.
  Harness h(/*recovery=*/true);
  obs::TraceBuffer trace;
  trace.setClock([&h] { return h.rig.sim.now().toSeconds(); });
  h.rig.agent.attachObservability(nullptr, &trace);
  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  h.failLeg("preempted");
  h.blockPremiumShare();
  const double lost_at = h.rig.sim.now().toSeconds();
  h.rig.sim.runUntil(TimePoint::fromSeconds(30));

  std::vector<double> retries;
  for (const auto& e : trace.events()) {
    if (e.event == "retry") retries.push_back(e.t_seconds);
  }
  // Six backed-off retries, then at least two probes.
  ASSERT_GE(retries.size(),
            static_cast<std::size_t>(QosAgent::kMaxRetries) + 2);
  double previous = lost_at;
  double backoff = QosAgent::kInitialBackoff.toSeconds();
  for (std::size_t i = 0; i < retries.size(); ++i) {
    const double expected =
        static_cast<int>(i) < QosAgent::kMaxRetries
            ? std::min(backoff, QosAgent::kMaxBackoff.toSeconds())
            : QosAgent::kReescalateInterval.toSeconds();
    const double gap = retries[i] - previous;
    EXPECT_GE(gap, expected * (1.0 - QosAgent::kJitter) - 1e-9) << i;
    EXPECT_LE(gap, expected * (1.0 + QosAgent::kJitter) + 1e-3) << i;
    previous = retries[i];
    backoff *= QosAgent::kBackoffMultiplier;
  }
  h.rig.agent.attachObservability(nullptr, nullptr);
}

TEST(QosRecoveryTest, RepeatedManagerFlapsDriveRecoveringToDegraded) {
  // Manager-level chaos: a FlakyResourceManager proxy re-registered under
  // "net-forward" (replace semantics) revokes the granted reservation and
  // denies the retries while in outage — the request must walk
  // kGranted -> kRecovering -> kDegraded, then re-escalate once the
  // manager comes back.
  Harness h(/*recovery=*/true);
  gara::FlakyResourceManager proxy(h.rig.net_forward);
  h.rig.gara.registerManager("net-forward", proxy);

  std::vector<std::pair<QosRequestState, QosRequestState>> edges;
  h.rig.agent.setStateObserver(
      [&edges](std::int32_t, QosRequestState from, QosRequestState to) {
        edges.emplace_back(from, to);
      });

  h.rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_TRUE(h.granted);

  // Outage at t=5 (revoking the active reservation), restored after the
  // retry loop's worst case — long enough that every retry is denied by
  // the unreachable manager.
  const double degraded_by = 5.0 + maxRetrySeconds();
  auto target = proxy.faultTarget();
  h.rig.sim.schedule(Duration::seconds(3), [&] { target.down(); });
  h.rig.sim.schedule(Duration::seconds(degraded_by - 2.0),
                     [&] { target.up(); });

  h.rig.sim.runUntil(TimePoint::fromSeconds(degraded_by));
  EXPECT_EQ(h.status().state, QosRequestState::kDegraded);

  auto has_edge = [&edges](QosRequestState from, QosRequestState to) {
    for (const auto& e : edges) {
      if (e.first == from && e.second == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge(QosRequestState::kGranted,
                       QosRequestState::kRecovering));
  EXPECT_TRUE(has_edge(QosRequestState::kRecovering,
                       QosRequestState::kDegraded));

  // Manager restored: the degraded request's background probe re-grants.
  h.rig.sim.runUntil(TimePoint::fromSeconds(
      degraded_by +
      QosAgent::kReescalateInterval.toSeconds() * (1.0 + QosAgent::kJitter)));
  EXPECT_EQ(h.status().state, QosRequestState::kGranted);
  h.rig.agent.setStateObserver({});
}

TEST(QosRecoveryTest, AwaitSettledParksWhileRecovering) {
  GarnetRig rig(rigConfig(/*recovery=*/true));
  // Occupy the premium share up front: the initial request is denied and
  // enters the retry loop instead of settling.
  gara::ReservationRequest request;
  request.amount = rig.net_forward.slots().capacity();
  auto blocker = rig.gara.reserve("net-forward", request);
  ASSERT_TRUE(static_cast<bool>(blocker)) << blocker.error;

  mpi::Comm* comm0 = nullptr;
  bool settled = false;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() != 0) co_return;
    comm0 = &comm;
    rig.premium_attr.qosclass = QosClass::kPremium;
    rig.premium_attr.bandwidth_kbps = 10'000.0;
    rig.premium_attr.max_message_size = 37'500;
    comm.attrPut(rig.agent.keyval(), &rig.premium_attr);
    co_await rig.agent.awaitSettled(comm);
    settled = true;
  });
  rig.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_NE(comm0, nullptr);
  EXPECT_FALSE(settled) << "the waiter must stay parked while recovering";
  EXPECT_EQ(rig.agent.status(*comm0).state, QosRequestState::kRecovering);

  // Free the capacity; the retry loop settles the request and wakes it.
  rig.gara.cancel(blocker.handle);
  rig.sim.runUntil(TimePoint::fromSeconds(60));
  EXPECT_TRUE(settled);
  EXPECT_EQ(rig.agent.status(*comm0).state, QosRequestState::kGranted);
}

}  // namespace
}  // namespace mgq::gq
