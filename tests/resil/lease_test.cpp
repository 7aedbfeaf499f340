// LeaseManager: renewal keeps a reservation alive indefinitely, stopping
// renewals hard-expires enforcement within duration + grace, and
// suspend/resume model a holder crash and its restart.
#include <gtest/gtest.h>

#include <set>

#include "gara/gara.hpp"
#include "obs/metrics.hpp"
#include "resil/lease.hpp"
#include "sim/simulator.hpp"

namespace mgq::resil {
namespace {

using sim::Duration;
using sim::TimePoint;

class RecordingManager : public gara::ResourceManager {
 public:
  explicit RecordingManager(double capacity) : ResourceManager(capacity) {}
  std::string validate(const gara::ReservationRequest&) const override {
    return {};
  }
  void enforce(gara::Reservation& r) override { enforced_.insert(r.id()); }
  void release(gara::Reservation& r) override { enforced_.erase(r.id()); }
  std::vector<std::uint64_t> enforcedIds() const override {
    return {enforced_.begin(), enforced_.end()};
  }

 private:
  std::set<std::uint64_t> enforced_;
};

struct Fixture {
  explicit Fixture(double default_lease_s = 0.0)
      : gara(sim),
        manager(100.0),
        leases(sim, gara, Duration::seconds(default_lease_s)) {
    gara.registerManager("rec", manager);
    leases.attachObservability(&metrics, nullptr);
  }
  gara::ReservationRequest request(double amount, double lease_s = 0.0) {
    gara::ReservationRequest r;
    r.amount = amount;
    if (lease_s > 0) r.lease = Duration::seconds(lease_s);
    return r;
  }

  sim::Simulator sim;
  gara::Gara gara;
  RecordingManager manager;
  obs::MetricsRegistry metrics;
  LeaseManager leases;
};

TEST(LeaseManagerTest, UnleasedReservationsAreIgnored) {
  Fixture f;  // no default lease
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  EXPECT_EQ(f.leases.leaseCount(), 0u);
  f.sim.runUntil(TimePoint::fromSeconds(60));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kActive);
}

TEST(LeaseManagerTest, RenewalsKeepALeasedReservationAliveIndefinitely) {
  Fixture f(/*default_lease_s=*/1.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  EXPECT_EQ(f.leases.leaseCount(), 1u);
  f.sim.runUntil(TimePoint::fromSeconds(30));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kActive);
  // Renewals fired every duration * renew_fraction = 0.5 s.
  EXPECT_GE(f.metrics.counter("resil.lease.renewals").value(), 50.0);
  EXPECT_EQ(f.metrics.counter("resil.lease.expired").value(), 0.0);
}

TEST(LeaseManagerTest, SuspendedRenewalsHardExpireWithinDurationPlusGrace) {
  Fixture f(/*default_lease_s=*/1.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(5));
  ASSERT_EQ(outcome.handle->state(), gara::ReservationState::kActive);

  f.leases.suspendRenewals();
  // Deadline was last extended at t=5 (renewal tick) to t<=6; the guard
  // fires at deadline + 250 ms grace.
  f.sim.runUntil(TimePoint::fromSeconds(6.3));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kFailed);
  EXPECT_EQ(outcome.handle->failureReason(), "lease_expired");
  EXPECT_EQ(f.leases.leaseCount(), 0u);
  EXPECT_TRUE(f.manager.enforcedIds().empty());  // enforcement shed
  EXPECT_GE(f.metrics.counter("resil.lease.expired").value(), 1.0);
  // Capacity is immediately reusable.
  EXPECT_TRUE(f.gara.reserve("rec", f.request(100.0)));
}

TEST(LeaseManagerTest, ResumeBeforeTheDeadlineKeepsTheLease) {
  Fixture f(/*default_lease_s=*/1.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(2));
  f.leases.suspendRenewals();
  // Resume inside the lease window: the immediate renewal saves it.
  f.sim.schedule(Duration::seconds(0.8), [&] { f.leases.resumeRenewals(); });
  f.sim.runUntil(TimePoint::fromSeconds(20));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kActive);
  EXPECT_EQ(f.leases.leaseCount(), 1u);
  EXPECT_EQ(f.metrics.counter("resil.lease.expired").value(), 0.0);
}

TEST(LeaseManagerTest, PerRequestLeaseOverridesTheDefault) {
  Fixture f(/*default_lease_s=*/30.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0, /*lease_s=*/1.0));
  ASSERT_TRUE(outcome);
  f.leases.suspendRenewals();
  // The 1 s request lease (not the 30 s default) governs the expiry.
  f.sim.runUntil(TimePoint::fromSeconds(1.5));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kFailed);
  EXPECT_EQ(outcome.handle->failureReason(), "lease_expired");
}

TEST(LeaseManagerTest, TerminalReservationsDropTheirLease) {
  Fixture f(/*default_lease_s=*/1.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  ASSERT_EQ(f.leases.leaseCount(), 1u);
  f.gara.cancel(outcome.handle);
  EXPECT_EQ(f.leases.leaseCount(), 0u);
  // The renewal/guard timers find no lease and stop; nothing fires later.
  f.sim.runUntil(TimePoint::fromSeconds(10));
  EXPECT_EQ(f.metrics.counter("resil.lease.expired").value(), 0.0);
}

}  // namespace
}  // namespace mgq::resil
