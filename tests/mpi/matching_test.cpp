#include "mpi/matching.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mgq::mpi {
namespace {

using sim::Task;

Envelope makeEnv(std::int32_t ctx, int src, int tag,
                 std::initializer_list<int> bytes = {}) {
  Envelope e;
  e.context = ctx;
  e.source = src;
  e.tag = tag;
  for (int b : bytes) e.data.push_back(static_cast<std::uint8_t>(b));
  return e;
}

TEST(MatchingTest, UnexpectedThenReceive) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  engine.deliver(makeEnv(1, 0, 5, {42}));
  EXPECT_EQ(engine.unexpectedCount(), 1u);
  Message got;
  auto proc = [](MatchingEngine& e, Message& out) -> Task<> {
    out = co_await e.receive(1, 0, 5);
  };
  sim.spawn(proc(engine, got));
  sim.run();
  EXPECT_EQ(got.data[0], 42);
  EXPECT_EQ(engine.unexpectedCount(), 0u);
}

TEST(MatchingTest, ReceiveThenDeliver) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  Message got;
  auto proc = [](MatchingEngine& e, Message& out) -> Task<> {
    out = co_await e.receive(1, kAnySource, kAnyTag);
  };
  sim.spawn(proc(engine, got));
  sim.runFor(sim::Duration::millis(1));
  EXPECT_EQ(engine.postedCount(), 1u);
  engine.deliver(makeEnv(1, 3, 9, {7}));
  sim.run();
  EXPECT_EQ(got.source, 3);
  EXPECT_EQ(got.tag, 9);
  EXPECT_EQ(engine.postedCount(), 0u);
}

TEST(MatchingTest, ContextIsolation) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  engine.deliver(makeEnv(2, 0, 5, {1}));  // wrong context
  Message got;
  bool done = false;
  auto proc = [](MatchingEngine& e, Message& out, bool& flag) -> Task<> {
    out = co_await e.receive(1, kAnySource, kAnyTag);
    flag = true;
  };
  sim.spawn(proc(engine, got, done));
  sim.runFor(sim::Duration::millis(1));
  EXPECT_FALSE(done);
  engine.deliver(makeEnv(1, 0, 5, {2}));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got.data[0], 2);
}

TEST(MatchingTest, EarliestArrivalWinsForWildcard) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  engine.deliver(makeEnv(1, 2, 8, {1}));
  engine.deliver(makeEnv(1, 0, 3, {2}));
  Message got;
  auto proc = [](MatchingEngine& e, Message& out) -> Task<> {
    out = co_await e.receive(1, kAnySource, kAnyTag);
  };
  sim.spawn(proc(engine, got));
  sim.run();
  EXPECT_EQ(got.data[0], 1);  // first arrival
}

TEST(MatchingTest, EarliestPostWinsForArrival) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  std::vector<int> order;
  auto proc = [](MatchingEngine& e, std::vector<int>& log, int id) -> Task<> {
    (void)co_await e.receive(1, kAnySource, kAnyTag);
    log.push_back(id);
  };
  sim.spawn(proc(engine, order, 1));
  sim.spawn(proc(engine, order, 2));
  sim.runFor(sim::Duration::millis(1));
  engine.deliver(makeEnv(1, 0, 0));
  sim.runFor(sim::Duration::millis(1));
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1);
  engine.deliver(makeEnv(1, 0, 0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MatchingTest, SelectiveRecvSkipsNonMatching) {
  sim::Simulator sim;
  MatchingEngine engine(sim);
  engine.deliver(makeEnv(1, 0, 1, {1}));
  engine.deliver(makeEnv(1, 0, 2, {2}));
  Message got;
  auto proc = [](MatchingEngine& e, Message& out) -> Task<> {
    out = co_await e.receive(1, 0, 2);
  };
  sim.spawn(proc(engine, got));
  sim.run();
  EXPECT_EQ(got.data[0], 2);
  EXPECT_EQ(engine.unexpectedCount(), 1u);  // tag-1 message still queued
}

TEST(WireHeaderTest, EncodeDecodeRoundTrip) {
  WireHeader h{123, -4, 56789, 1'000'000'000'000LL};
  std::vector<std::uint8_t> buf(WireHeader::kBytes);
  h.encode(buf);
  const auto d = WireHeader::decode(buf);
  EXPECT_EQ(d.context, 123);
  EXPECT_EQ(d.source, -4);
  EXPECT_EQ(d.tag, 56789);
  EXPECT_EQ(d.length, 1'000'000'000'000LL);
}

TEST(PackTest, DoublesRoundTrip) {
  const std::vector<double> v{1.5, -2.25, 1e300};
  const auto bytes = packDoubles(v);
  EXPECT_EQ(bytes.size(), 24u);
  EXPECT_EQ(unpackDoubles(bytes), v);
  // Empty input (a non-root rank's reduce result): its data() is null.
  const std::vector<double> none;
  EXPECT_TRUE(packDoubles(none).empty());
  EXPECT_TRUE(unpackDoubles(packDoubles(none)).empty());
}

TEST(PackTest, IntsRoundTrip) {
  const std::vector<std::int64_t> v{-1, 0, INT64_MAX};
  EXPECT_EQ(unpackInts(packInts(v)), v);
  const std::vector<std::int64_t> none;
  EXPECT_TRUE(unpackInts(packInts(none)).empty());
}

}  // namespace
}  // namespace mgq::mpi
