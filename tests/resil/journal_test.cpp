// StateJournal: lifecycle capture through Gara's listener, the live
// index, last-wins QoS intents, and the replay queries a restart uses.
#include <gtest/gtest.h>

#include <set>

#include "gara/gara.hpp"
#include "resil/journal.hpp"
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
  Fixture() : gara(sim), manager(100.0), journal(sim) {
    gara.registerManager("rec", manager);
    journal.attach(gara);
  }
  gara::ReservationRequest request(double amount, double start_s = 0,
                                   double duration_s = -1) {
    gara::ReservationRequest r;
    r.start = TimePoint::fromSeconds(start_s);
    if (duration_s > 0) r.duration = Duration::seconds(duration_s);
    r.amount = amount;
    return r;
  }

  sim::Simulator sim;
  gara::Gara gara;
  RecordingManager manager;
  StateJournal journal;
};

TEST(StateJournalTest, LifecycleOpsAppendAndTrackLiveness) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  const auto id = outcome.handle->id();

  // Immediate reservation: admitted + activated.
  ASSERT_EQ(f.journal.size(), 2u);
  EXPECT_EQ(f.journal.records()[0].op, JournalOp::kAdmitted);
  EXPECT_EQ(f.journal.records()[1].op, JournalOp::kActivated);
  EXPECT_TRUE(f.journal.isLive(id));
  ASSERT_EQ(f.journal.liveReservations().size(), 1u);
  EXPECT_EQ(f.journal.liveReservations()[0].id, id);
  EXPECT_EQ(f.journal.liveReservations()[0].resource, "rec");
  EXPECT_DOUBLE_EQ(f.journal.liveReservations()[0].amount, 10.0);

  f.gara.cancel(outcome.handle);
  EXPECT_FALSE(f.journal.isLive(id));
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kCancelled);
  EXPECT_TRUE(f.journal.liveReservations().empty());
}

TEST(StateJournalTest, ModifyUpdatesTheLiveAmount) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  ASSERT_TRUE(f.gara.modify(outcome.handle, 25.0));
  ASSERT_EQ(f.journal.liveReservations().size(), 1u);
  EXPECT_DOUBLE_EQ(f.journal.liveReservations()[0].amount, 25.0);
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kModified);
}

TEST(StateJournalTest, FailedRecordsCarryTheReason) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  f.gara.fail(outcome.handle, "lease_expired");
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kFailed);
  EXPECT_EQ(f.journal.records().back().detail, "lease_expired");
  EXPECT_FALSE(f.journal.isLive(outcome.handle->id()));
}

TEST(StateJournalTest, ExpiryRetiresTheJournalEntry) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0, 0, 2));
  ASSERT_TRUE(outcome);
  f.sim.runUntil(TimePoint::fromSeconds(3));
  EXPECT_EQ(outcome.handle->state(), gara::ReservationState::kExpired);
  EXPECT_FALSE(f.journal.isLive(outcome.handle->id()));
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kExpired);
}

TEST(StateJournalTest, QosIntentsAreLastWinsPerCommRank) {
  Fixture f;
  f.journal.recordQosPut(7, 0, 1, 4000.0, 40'000, 40.0);
  f.journal.recordQosPut(7, 1, 1, 4000.0, 40'000, 40.0);
  f.journal.recordQosPut(7, 0, 1, 8000.0, 50'000, 4.0);  // re-put wins
  ASSERT_EQ(f.journal.liveIntents().size(), 2u);
  EXPECT_DOUBLE_EQ(f.journal.liveIntents()[0].bandwidth_kbps, 8000.0);
  EXPECT_EQ(f.journal.liveIntents()[0].max_message_size, 50'000u);
  EXPECT_DOUBLE_EQ(f.journal.liveIntents()[1].bandwidth_kbps, 4000.0);

  f.journal.recordQosRelease(7, 0);
  ASSERT_EQ(f.journal.liveIntents().size(), 1u);
  EXPECT_EQ(f.journal.liveIntents()[0].world_rank, 1);
}

TEST(StateJournalTest, JournalSurvivesGaraCrashAndTracksMaxId) {
  Fixture f;
  auto a = f.gara.reserve("rec", f.request(10.0));
  auto b = f.gara.reserve("rec", f.request(20.0));
  ASSERT_TRUE(a && b);
  const auto max_id = b.handle->id();
  EXPECT_EQ(f.journal.maxReservationId(), max_id);

  f.journal.recordCrash("test crash");
  f.gara.crash();
  // The crash wiped Gara's live index, not the journal's.
  EXPECT_TRUE(f.gara.liveHandles().empty());
  EXPECT_EQ(f.journal.liveCount(), 2u);
  EXPECT_TRUE(f.journal.isLive(a.handle->id()));
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kCrash);

  f.journal.recordRestart("test restart");
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kRestart);
  EXPECT_EQ(f.journal.maxReservationId(), max_id);
}

TEST(StateJournalTest, ForceRetireDropsALiveEntryWithoutAHandle) {
  Fixture f;
  auto outcome = f.gara.reserve("rec", f.request(10.0));
  ASSERT_TRUE(outcome);
  const auto id = outcome.handle->id();
  f.journal.forceRetire(id, "reconcile: no surviving handle");
  EXPECT_FALSE(f.journal.isLive(id));
  EXPECT_EQ(f.journal.records().back().op, JournalOp::kFailed);
  EXPECT_EQ(f.journal.records().back().detail,
            "reconcile: no surviving handle");
}

}  // namespace
}  // namespace mgq::resil
