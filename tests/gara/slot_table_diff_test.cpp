// Differential test: SlotTable against a naive interval list. Seeded random
// insert / modify / remove sequences run on both; the model decides
// admission by summing every claim at every tick of the requested
// interval, with no event-point reasoning. Times are whole ticks and
// amounts whole units, so both sides sum exactly and every return value,
// every usedAt() at every live interval's endpoints and the id set must
// match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gara/slot_table.hpp"
#include "sim/random.hpp"

namespace mgq::gara {
namespace {

using sim::Duration;
using sim::TimePoint;

constexpr double kCapacity = 100.0;
constexpr std::int64_t kTicks = 64;  // times live in [0, kTicks] ms

TimePoint at(std::int64_t tick) {
  return TimePoint::zero() + Duration::millis(tick);
}

/// The reference: a flat list of claims, checked tick by tick.
class NaiveSlotList {
 public:
  struct Claim {
    SlotId id;
    std::int64_t start;
    std::int64_t end;
    double amount;
  };

  double usedAt(std::int64_t tick, SlotId skip = 0) const {
    double used = 0.0;
    for (const auto& c : claims_) {
      if (c.id != skip && c.start <= tick && tick < c.end) used += c.amount;
    }
    return used;
  }

  SlotId insert(std::int64_t start, std::int64_t end, double amount) {
    if (!fits(start, end, amount, 0)) return 0;
    claims_.push_back({next_id_, start, end, amount});
    return next_id_++;
  }

  bool remove(SlotId id) {
    const auto it = find(id);
    if (it == claims_.end()) return false;
    claims_.erase(it);
    return true;
  }

  bool modify(SlotId id, std::int64_t start, std::int64_t end,
              double amount) {
    const auto it = find(id);
    if (it == claims_.end() || !fits(start, end, amount, id)) return false;
    *it = {id, start, end, amount};
    return true;
  }

  const std::vector<Claim>& claims() const { return claims_; }

 private:
  bool fits(std::int64_t start, std::int64_t end, double amount,
            SlotId skip) const {
    if (end <= start || amount < 0.0) return false;
    for (std::int64_t tick = start; tick < end; ++tick) {
      if (usedAt(tick, skip) + amount > kCapacity) return false;
    }
    return true;
  }

  std::vector<Claim>::iterator find(SlotId id) {
    return std::find_if(claims_.begin(), claims_.end(),
                        [id](const Claim& c) { return c.id == id; });
  }

  std::vector<Claim> claims_;
  SlotId next_id_ = 1;
};

struct DiffCounts {
  std::uint64_t inserted = 0;
  std::uint64_t insert_refused = 0;
  std::uint64_t modified = 0;
  std::uint64_t modify_refused = 0;
  std::uint64_t removed = 0;
  std::uint64_t remove_unknown = 0;
  std::size_t max_slots = 0;
};

void runDifferential(std::uint64_t seed, int ops, DiffCounts& counts) {
  sim::Rng rng(seed);
  SlotTable table(kCapacity);
  NaiveSlotList model;

  // Mostly well-formed claims that crowd the capacity, plus empty or
  // reversed intervals, negative amounts and amounts over capacity.
  auto draw = [&rng](std::int64_t& start, std::int64_t& end,
                     double& amount) {
    start = rng.uniformInt(0, kTicks - 1);
    end = rng.uniformInt(0, 9) == 0 ? rng.uniformInt(0, start)
                                    : rng.uniformInt(start + 1, kTicks);
    const auto kind = rng.uniformInt(0, 19);
    amount = kind == 0   ? -static_cast<double>(rng.uniformInt(1, 10))
             : kind == 1 ? static_cast<double>(rng.uniformInt(101, 150))
                         : static_cast<double>(rng.uniformInt(0, 60));
  };
  // A live id most of the time, otherwise one that was never issued or
  // is already gone.
  auto pickId = [&rng, &model]() -> SlotId {
    const auto& claims = model.claims();
    if (claims.empty() || rng.uniformInt(0, 9) == 0) {
      return static_cast<SlotId>(rng.uniformInt(1, 100'000));
    }
    const auto i = rng.uniformInt(0, static_cast<std::int64_t>(claims.size()) - 1);
    return claims[static_cast<std::size_t>(i)].id;
  };

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(op);
    std::int64_t start = 0;
    std::int64_t end = 0;
    double amount = 0.0;
    const auto r = rng.uniformInt(0, 99);
    if (r < 45) {
      draw(start, end, amount);
      const SlotId got = table.insert(at(start), at(end), amount);
      ASSERT_EQ(got, model.insert(start, end, amount));
      ++(got != 0 ? counts.inserted : counts.insert_refused);
    } else if (r < 75) {
      const SlotId id = pickId();
      draw(start, end, amount);
      const bool got = table.modify(id, at(start), at(end), amount);
      ASSERT_EQ(got, model.modify(id, start, end, amount));
      ++(got ? counts.modified : counts.modify_refused);
    } else {
      const SlotId id = pickId();
      const bool got = table.remove(id);
      ASSERT_EQ(got, model.remove(id));
      ++(got ? counts.removed : counts.remove_unknown);
    }

    ASSERT_EQ(table.slotCount(), model.claims().size());
    std::vector<SlotId> ids;
    for (const auto& c : model.claims()) {
      ids.push_back(c.id);
      ASSERT_EQ(table.usedAt(at(c.start)), model.usedAt(c.start));
      ASSERT_EQ(table.usedAt(at(c.end)), model.usedAt(c.end));
    }
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(table.ids(), ids);
    counts.max_slots = std::max(counts.max_slots, ids.size());
  }
}

TEST(SlotTableDiffTest, RandomOperationsMatchNaiveIntervalList) {
  DiffCounts counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    runDifferential(seed, 20'000, counts);
    if (HasFatalFailure()) return;
  }
  // Every outcome of every operation is reached often, and the table
  // holds enough claims for admission to compete.
  EXPECT_GT(counts.inserted, 5'000u);
  EXPECT_GT(counts.insert_refused, 5'000u);
  EXPECT_GT(counts.modified, 2'000u);
  EXPECT_GT(counts.modify_refused, 2'000u);
  EXPECT_GT(counts.removed, 2'000u);
  EXPECT_GT(counts.remove_unknown, 1'000u);
  EXPECT_GT(counts.max_slots, 10u);
}

}  // namespace
}  // namespace mgq::gara
