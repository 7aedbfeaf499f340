// Reconciler: the three divergence sweeps — zombie enforcement, unclaimed
// journal-live reservations (fail-and-refresh vs adopt), and orphaned
// slot-table claims — plus the unrepairable fallback.
#include <gtest/gtest.h>

#include <set>

#include "gara/gara.hpp"
#include "obs/metrics.hpp"
#include "resil/journal.hpp"
#include "resil/lease.hpp"
#include "resil/reconciler.hpp"
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
      : gara(sim), manager(100.0), journal(sim),
        leases(sim, gara, Duration::seconds(default_lease_s)),
        reconciler(gara, journal, &leases) {
    gara.registerManager("rec", manager);
    journal.attach(gara);
    reconciler.attachObservability(&metrics, nullptr);
  }
  gara::ReservationRequest request(double amount) {
    gara::ReservationRequest r;
    r.amount = amount;
    return r;
  }

  sim::Simulator sim;
  gara::Gara gara;
  RecordingManager manager;
  obs::MetricsRegistry metrics;
  StateJournal journal;
  LeaseManager leases;
  Reconciler reconciler;
};

TEST(ReconcilerTest, CleanStateNeedsNoRepairs) {
  Fixture f;
  auto held = f.gara.reserve("rec", f.request(10.0));  // holder keeps it live
  ASSERT_TRUE(held);
  const auto report = f.reconciler.reconcile(
      Reconciler::UnclaimedPolicy::kFailAndRefresh);
  EXPECT_EQ(report.total(), 0);
  EXPECT_EQ(report.unrepairable, 0);
  EXPECT_EQ(f.metrics.counter("resil.reconcile.runs").value(), 1.0);
}

TEST(ReconcilerTest, ZombieEnforcementIsTornDown) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  const auto id = outcome.handle->id();
  // Journal believes the reservation retired, yet the manager still
  // enforces it (simulated divergence: the release callout was lost).
  f.journal.forceRetire(id, "simulated divergence");
  ASSERT_EQ(f.manager.enforcedIds().size(), 1u);

  const auto report = f.reconciler.reconcile(
      Reconciler::UnclaimedPolicy::kFailAndRefresh);
  EXPECT_EQ(report.zombies_failed, 1);
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kFailed);
  EXPECT_TRUE(f.manager.enforcedIds().empty());
  EXPECT_DOUBLE_EQ(f.manager.slots().usedAt(f.sim.now()), 0.0);
  EXPECT_EQ(f.metrics.counter("resil.reconcile.zombies").value(), 1.0);
}

TEST(ReconcilerTest, UnclaimedReservationIsFailedAndRefreshed) {
  Fixture f(/*default_lease_s=*/30.0);  // lease holds the handle
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  const auto id = outcome.handle->id();

  f.gara.crash();
  ASSERT_TRUE(f.gara.liveHandles().empty());
  ASSERT_TRUE(f.journal.isLive(id));

  const auto report = f.reconciler.reconcile(
      Reconciler::UnclaimedPolicy::kFailAndRefresh);
  EXPECT_EQ(report.unclaimed_failed, 1);
  EXPECT_EQ(report.unrepairable, 0);
  // Failed fresh: enforcement gone, slot free, journal retired — the
  // re-issued intents can now reserve the full capacity again.
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kFailed);
  EXPECT_FALSE(f.journal.isLive(id));
  EXPECT_TRUE(f.manager.enforcedIds().empty());
  EXPECT_TRUE(f.gara.reserve("rec", f.request(100.0)));
}

TEST(ReconcilerTest, AdoptPolicyReclaimsTheSurvivingHandleInPlace) {
  Fixture f(/*default_lease_s=*/30.0);
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  const auto id = outcome.handle->id();

  f.gara.crash();
  const auto report =
      f.reconciler.reconcile(Reconciler::UnclaimedPolicy::kAdopt);
  EXPECT_EQ(report.unclaimed_adopted, 1);
  // Adopted in place: still active, still enforced, live again in Gara.
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kActive);
  EXPECT_NE(f.gara.findLive(id), nullptr);
  ASSERT_EQ(f.manager.enforcedIds().size(), 1u);
  EXPECT_TRUE(f.journal.isLive(id));
}

TEST(ReconcilerTest, UnclaimedWithoutAnyHandleIsForceRetired) {
  Fixture f;  // no lease: nothing holds the handle across the crash
  std::uint64_t id = 0;
  {
    auto outcome = f.gara.reserve("rec", f.request(10.0));
    ASSERT_TRUE(outcome);
    id = outcome.handle->id();
    f.gara.crash();
    // The handle goes out of scope: no registry entry can repair it.
  }
  const auto report = f.reconciler.reconcile(
      Reconciler::UnclaimedPolicy::kFailAndRefresh);
  EXPECT_GE(report.unrepairable, 1);
  EXPECT_FALSE(f.journal.isLive(id));
}

TEST(ReconcilerTest, OrphanSlotClaimsAreRemoved) {
  Fixture f;
  auto held = f.gara.reserve("rec", f.request(10.0));  // holder keeps it live
  ASSERT_TRUE(held);
  // A slot claim no journal-live reservation owns (e.g. admitted by a
  // pre-crash controller whose journal entry was already retired).
  f.manager.slots().insert(f.sim.now(), f.sim.now() + Duration::seconds(60),
                           25.0);
  ASSERT_NEAR(f.manager.slots().usedAt(f.sim.now()), 35.0, 1e-9);

  const auto report = f.reconciler.reconcile(
      Reconciler::UnclaimedPolicy::kFailAndRefresh);
  EXPECT_EQ(report.orphan_slots_removed, 1);
  EXPECT_NEAR(f.manager.slots().usedAt(f.sim.now()), 10.0, 1e-9);
  EXPECT_EQ(f.metrics.counter("resil.reconcile.orphan_slots").value(), 1.0);
}

}  // namespace
}  // namespace mgq::resil
