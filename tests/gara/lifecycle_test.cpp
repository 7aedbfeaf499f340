// Reservation lifecycle edge cases: cancellation before activation,
// expiry freeing capacity, callback ordering, modify interactions with
// advance reservations, and the kFailed path (attachment loss, manager
// revocation, co-reservation rollback).
#include <gtest/gtest.h>

#include "gara/flaky_resource_manager.hpp"
#include "gara/gara.hpp"
#include "net/network.hpp"

namespace mgq::gara {
namespace {

using sim::Duration;
using sim::TimePoint;

struct Fixture {
  Fixture() : network(sim), gara(sim) {
    host = &network.addHost("h");
    router = &network.addRouter("r");
    network.connect(*host, *router, net::LinkConfig{});
    network.computeRoutes();
    manager = std::make_unique<NetworkResourceManager>(
        40e6, *router->interfaces().front());
    gara.registerManager("net", *manager);
  }
  ReservationRequest request(double bps, double start_s = 0,
                             double duration_s = -1) {
    ReservationRequest r;
    r.start = TimePoint::fromSeconds(start_s);
    if (duration_s > 0) r.duration = Duration::seconds(duration_s);
    r.amount = bps;
    return r;
  }
  net::DsPolicy& policy() {
    return router->interfaces().front()->ingressPolicy();
  }

  sim::Simulator sim;
  net::Network network;
  net::Host* host;
  net::Router* router;
  Gara gara;
  std::unique_ptr<NetworkResourceManager> manager;
};

TEST(ReservationLifecycleTest, CancelPendingNeverInstallsEnforcement) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6, 10, 10));
  ASSERT_TRUE(outcome);
  ASSERT_EQ(outcome.handle->state(), ReservationState::kPending);
  f.gara.cancel(outcome.handle);
  EXPECT_EQ(outcome.handle->state(), ReservationState::kCancelled);
  // Run past the would-be activation: no rule must appear.
  f.sim.runUntil(TimePoint::fromSeconds(15));
  EXPECT_EQ(f.policy().ruleCount(), 0u);
  EXPECT_DOUBLE_EQ(f.manager->slots().usedAt(TimePoint::fromSeconds(12)),
                   0.0);
}

TEST(ReservationLifecycleTest, ExpiredCapacityReusableImmediately) {
  Fixture f;
  ASSERT_TRUE(f.gara.reserve("net", f.request(40e6, 0, 5)));
  EXPECT_FALSE(f.gara.reserve("net", f.request(10e6, 2, 10)));
  // Starting exactly at the expiry instant is fine (half-open interval).
  EXPECT_TRUE(f.gara.reserve("net", f.request(40e6, 5, 5)));
}

TEST(ReservationLifecycleTest, CallbackFiresOnCancel) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(5e6));
  ASSERT_TRUE(outcome);
  std::vector<ReservationState> to_states;
  outcome.handle->onStateChange(
      [&](Reservation&, ReservationState, ReservationState to) {
        to_states.push_back(to);
      });
  f.gara.cancel(outcome.handle);
  ASSERT_EQ(to_states.size(), 1u);
  EXPECT_EQ(to_states[0], ReservationState::kCancelled);
}

TEST(ReservationLifecycleTest, ModifyPendingDoesNotTouchDevices) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6, 10, 10));
  ASSERT_TRUE(outcome);
  EXPECT_TRUE(f.gara.modify(outcome.handle, 20e6));
  EXPECT_EQ(f.policy().ruleCount(), 0u);  // still pending
  f.sim.runUntil(TimePoint::fromSeconds(11));
  EXPECT_EQ(f.policy().ruleCount(), 1u);
  EXPECT_DOUBLE_EQ(outcome.handle->bucket->rateBps(), 20e6);
}

TEST(ReservationLifecycleTest, ModifyAfterExpiryFails) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6, 0, 2));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(3));
  EXPECT_EQ(outcome.handle->state(), ReservationState::kExpired);
  EXPECT_FALSE(f.gara.modify(outcome.handle, 5e6));
  f.gara.cancel(outcome.handle);  // no-op, no crash
  EXPECT_EQ(outcome.handle->state(), ReservationState::kExpired);
}

TEST(ReservationLifecycleTest, InfiniteDurationNeverExpires) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(10'000));
  EXPECT_EQ(outcome.handle->state(), ReservationState::kActive);
  EXPECT_EQ(f.policy().ruleCount(), 1u);
}

TEST(ReservationLifecycleTest, PastStartIsClampedToNow) {
  Fixture f;
  f.sim.runUntil(TimePoint::fromSeconds(5));
  auto request = f.request(10e6, 1 /* in the past */, 10);
  auto outcome = f.gara.reserve("net", request);
  ASSERT_TRUE(outcome);
  EXPECT_EQ(outcome.handle->state(), ReservationState::kActive);
  // Duration counts from the clamped start.
  EXPECT_EQ(outcome.handle->request().start, TimePoint::fromSeconds(5));
}

TEST(ReservationLifecycleTest, ManyConcurrentReservationsAccumulate) {
  Fixture f;
  std::vector<ReservationHandle> held;
  for (int i = 0; i < 8; ++i) {
    auto outcome = f.gara.reserve("net", f.request(5e6));
    ASSERT_TRUE(outcome) << i;
    held.push_back(outcome.handle);
  }
  EXPECT_FALSE(f.gara.reserve("net", f.request(5e6)));  // 45 > 40
  EXPECT_EQ(f.policy().ruleCount(), 8u);
  for (auto& h : held) f.gara.cancel(h);
  EXPECT_EQ(f.policy().ruleCount(), 0u);
}

TEST(ReservationFailureTest, AttachmentDownFailsActiveReservation) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6));
  ASSERT_TRUE(outcome);
  ASSERT_EQ(outcome.handle->state(), ReservationState::kActive);
  ASSERT_EQ(f.policy().ruleCount(), 1u);

  // Callback ordering: by the time onStateChange fires, enforcement must
  // already be gone and the slot freed (a handler may immediately
  // re-reserve the full capacity).
  int fired = 0;
  outcome.handle->onStateChange(
      [&](Reservation& r, ReservationState from, ReservationState to) {
        ++fired;
        EXPECT_EQ(from, ReservationState::kActive);
        EXPECT_EQ(to, ReservationState::kFailed);
        EXPECT_EQ(f.policy().ruleCount(), 0u);
        EXPECT_DOUBLE_EQ(f.manager->slots().usedAt(f.sim.now()), 0.0);
        EXPECT_FALSE(r.failureReason().empty());
      });

  f.router->interfaces().front()->setUp(false);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(outcome.handle->state(), ReservationState::kFailed);
  EXPECT_NE(outcome.handle->failureReason().find("down"), std::string::npos);
  // The id is no longer live.
  EXPECT_EQ(f.gara.findLive(outcome.handle->id()), nullptr);
}

TEST(ReservationFailureTest, FailFreesCapacityImmediately) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(40e6));
  ASSERT_TRUE(outcome);
  EXPECT_FALSE(f.gara.reserve("net", f.request(5e6)));
  f.gara.fail(outcome.handle, "preempted by operator");
  EXPECT_EQ(outcome.handle->failureReason(), "preempted by operator");
  EXPECT_TRUE(f.gara.reserve("net", f.request(40e6)));
}

TEST(ReservationFailureTest, FailPendingNeverInstallsEnforcement) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6, 10, 10));
  ASSERT_TRUE(outcome);
  f.gara.fail(outcome.handle, "revoked before start");
  EXPECT_EQ(outcome.handle->state(), ReservationState::kFailed);
  f.sim.runUntil(sim::TimePoint::fromSeconds(15));
  EXPECT_EQ(f.policy().ruleCount(), 0u);
}

TEST(ReservationFailureTest, ValidateRejectsDownAttachment) {
  Fixture f;
  f.router->interfaces().front()->setUp(false);
  auto outcome = f.gara.reserve("net", f.request(10e6));
  EXPECT_FALSE(outcome);
  EXPECT_NE(outcome.error.find("down"), std::string::npos);
  f.router->interfaces().front()->setUp(true);
  EXPECT_TRUE(f.gara.reserve("net", f.request(10e6)));
}

TEST(ReservationFailureTest, ModifyAndCancelRefusedOnEveryTerminalState) {
  Fixture f;
  // Reach each terminal state a different way.
  auto expired = f.gara.reserve("net", f.request(5e6, 0, 1));
  auto cancelled = f.gara.reserve("net", f.request(5e6));
  auto failed = f.gara.reserve("net", f.request(5e6));
  ASSERT_TRUE(expired && cancelled && failed);
  f.sim.runUntil(sim::TimePoint::fromSeconds(2));
  f.gara.cancel(cancelled.handle);
  f.gara.fail(failed.handle, "injected");

  const std::vector<std::pair<ReservationHandle, ReservationState>> cases = {
      {expired.handle, ReservationState::kExpired},
      {cancelled.handle, ReservationState::kCancelled},
      {failed.handle, ReservationState::kFailed},
  };
  for (const auto& [handle, state] : cases) {
    ASSERT_EQ(handle->state(), state);
    EXPECT_FALSE(f.gara.modify(handle, 1e6));
    f.gara.cancel(handle);  // must not resurrect or re-transition
    EXPECT_EQ(handle->state(), state);
    f.gara.fail(handle, "late failure");
    EXPECT_EQ(handle->state(), state);
  }
  // "late failure" must not overwrite the recorded reason.
  EXPECT_EQ(failed.handle->failureReason(), "injected");
}

/// Manager whose enforce() revokes another reservation — models a backend
/// that preempts an earlier grant while a later co-reservation leg is
/// still being set up.
class PreemptingManager : public ResourceManager {
 public:
  explicit PreemptingManager(double capacity) : ResourceManager(capacity) {}
  std::string validate(const ReservationRequest&) const override {
    return {};
  }
  void enforce(Reservation&) override {
    if (victim_ != 0) reportFailure(victim_, "preempted mid-setup");
  }
  void release(Reservation&) override {}
  void preemptOnEnforce(std::uint64_t victim) { victim_ = victim; }

 private:
  std::uint64_t victim_ = 0;
};

TEST(ReservationFailureTest, CoReserveRollsBackWhenLegRevokedMidSetup) {
  Fixture f;
  PreemptingManager trap(100.0);
  f.gara.registerManager("trap", trap);

  // Reservation ids are sequential from 1: the first coReserve leg gets
  // id 1, and the trap's enforce() revokes it while the second leg is
  // being set up.
  trap.preemptOnEnforce(1);
  auto outcome = f.gara.coReserve({
      {"net", f.request(10e6)},
      {"trap", f.request(1.0)},
  });
  EXPECT_FALSE(outcome);
  EXPECT_NE(outcome.error.find("revoked mid-setup"), std::string::npos);
  EXPECT_TRUE(outcome.handles.empty());
  // Nothing held anywhere: enforcement gone, both slot tables empty.
  EXPECT_EQ(f.policy().ruleCount(), 0u);
  EXPECT_DOUBLE_EQ(f.manager->slots().usedAt(f.sim.now()), 0.0);
  EXPECT_DOUBLE_EQ(trap.slots().usedAt(f.sim.now()), 0.0);
  // Capacity is immediately reusable on both resources.
  EXPECT_TRUE(f.gara.coReserve({{"net", f.request(40e6)}}));
}

TEST(FlakyResourceManagerTest, OutageAndTransientDenialsGateAdmission) {
  Fixture f;
  FlakyResourceManager flaky(*f.manager);
  f.gara.registerManager("flaky", flaky);

  flaky.setOutage(true);
  auto outcome = f.gara.reserve("flaky", f.request(5e6));
  EXPECT_FALSE(outcome);
  EXPECT_NE(outcome.error.find("unreachable"), std::string::npos);

  flaky.setOutage(false);
  flaky.denyNext(2);
  EXPECT_FALSE(f.gara.reserve("flaky", f.request(5e6)));
  EXPECT_FALSE(f.gara.reserve("flaky", f.request(5e6)));
  EXPECT_TRUE(f.gara.reserve("flaky", f.request(5e6)));
}

TEST(FlakyResourceManagerTest, RevocationFailsEveryActiveReservation) {
  Fixture f;
  FlakyResourceManager flaky(*f.manager);
  f.gara.registerManager("flaky", flaky);

  auto a = f.gara.reserve("flaky", f.request(5e6));
  auto b = f.gara.reserve("flaky", f.request(5e6));
  ASSERT_TRUE(a && b);
  ASSERT_EQ(flaky.activeCount(), 2u);
  ASSERT_EQ(f.policy().ruleCount(), 2u);  // forwarded to the real manager

  flaky.revokeActive("capacity preempted");
  EXPECT_EQ(a.handle->state(), ReservationState::kFailed);
  EXPECT_EQ(b.handle->state(), ReservationState::kFailed);
  EXPECT_EQ(a.handle->failureReason(), "capacity preempted");
  EXPECT_EQ(flaky.activeCount(), 0u);
  EXPECT_EQ(f.policy().ruleCount(), 0u);
}

TEST(FlakyResourceManagerTest, FaultTargetDrivesOutageAndRevocation) {
  Fixture f;
  FlakyResourceManager flaky(*f.manager);
  f.gara.registerManager("flaky", flaky);
  auto held = f.gara.reserve("flaky", f.request(5e6));
  ASSERT_TRUE(held);

  auto target = flaky.faultTarget();
  target.down();
  EXPECT_TRUE(flaky.outage());
  EXPECT_EQ(held.handle->state(), ReservationState::kFailed);
  EXPECT_FALSE(f.gara.reserve("flaky", f.request(5e6)));
  target.up();
  EXPECT_FALSE(flaky.outage());
  EXPECT_TRUE(f.gara.reserve("flaky", f.request(5e6)));
}

TEST(ReservationIdempotenceTest, DoubleFailKeepsFirstReasonAndFiresOnce) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6));
  ASSERT_TRUE(outcome);
  int terminal_events = 0;
  f.gara.addLifecycleListener([&](const char* op, const ReservationHandle&,
                                  const std::string&, const std::string&) {
    if (std::string(op) == "failed") ++terminal_events;
  });
  f.gara.fail(outcome.handle, "first failure");
  f.gara.fail(outcome.handle, "second failure");
  EXPECT_EQ(outcome.handle->state(), ReservationState::kFailed);
  EXPECT_EQ(outcome.handle->failureReason(), "first failure");
  EXPECT_EQ(terminal_events, 1);
  // Capacity was released exactly once: the full pool reserves cleanly.
  EXPECT_TRUE(f.gara.reserve("net", f.request(40e6)));
}

TEST(ReservationIdempotenceTest, CancelAfterExpiryIsASilentNoOp) {
  Fixture f;
  auto outcome = f.gara.reserve("net", f.request(10e6, 0, 1));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(2));
  ASSERT_EQ(outcome.handle->state(), ReservationState::kExpired);

  int events_after_expiry = 0;
  f.gara.addLifecycleListener([&](const char*, const ReservationHandle&,
                                  const std::string&, const std::string&) {
    ++events_after_expiry;
  });
  f.gara.cancel(outcome.handle);
  f.gara.cancel(outcome.handle);
  EXPECT_EQ(outcome.handle->state(), ReservationState::kExpired);
  EXPECT_EQ(events_after_expiry, 0);  // no resurrection, no re-transition
  EXPECT_EQ(f.gara.findLive(outcome.handle->id()), nullptr);
}

TEST(ReservationIdempotenceTest, FailDuringCoReserveRollbackStaysFailed) {
  Fixture f;
  PreemptingManager trap(100.0);
  f.gara.registerManager("trap", trap);

  // The trap's enforce() fails leg 1 while leg 2 is being set up; the
  // coReserve rollback then cancels every admitted leg, including the
  // already-failed one — that cancel must be a no-op, not a double
  // release or a kFailed -> kCancelled re-transition.
  std::vector<std::string> terminal_ops;
  f.gara.addLifecycleListener([&](const char* op, const ReservationHandle& h,
                                  const std::string&, const std::string&) {
    const std::string name = op;
    if (h->id() == 1 &&
        (name == "failed" || name == "cancelled" || name == "expired")) {
      terminal_ops.push_back(name);
    }
  });
  trap.preemptOnEnforce(1);
  auto outcome = f.gara.coReserve({
      {"net", f.request(10e6)},
      {"trap", f.request(1.0)},
  });
  EXPECT_FALSE(outcome);
  ASSERT_EQ(terminal_ops.size(), 1u);
  EXPECT_EQ(terminal_ops[0], "failed");
  EXPECT_DOUBLE_EQ(f.manager->slots().usedAt(f.sim.now()), 0.0);
  EXPECT_TRUE(f.gara.reserve("net", f.request(40e6)));
}

TEST(ReservationFailureTest, StaleFailureReportIsIgnored) {
  Fixture f;
  PreemptingManager trap(100.0);
  f.gara.registerManager("trap", trap);
  auto outcome = f.gara.reserve("net", f.request(10e6));
  ASSERT_TRUE(outcome);
  f.gara.cancel(outcome.handle);
  // A late revocation for an id that is no longer live must be a no-op.
  trap.preemptOnEnforce(outcome.handle->id());
  ASSERT_TRUE(f.gara.reserve("trap", f.request(1.0)));
  EXPECT_EQ(outcome.handle->state(), ReservationState::kCancelled);
}

}  // namespace
}  // namespace mgq::gara
