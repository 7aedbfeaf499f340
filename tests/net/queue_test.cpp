#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace mgq::net {
namespace {

Packet makePacket(std::int32_t size, Dscp dscp = Dscp::kBestEffort,
                  std::uint64_t id = 0) {
  Packet p;
  p.size_bytes = size;
  p.dscp = dscp;
  p.id = id;
  return p;
}

TEST(DropTailQueueTest, FifoOrder) {
  DropTailQueue q(10'000);
  q.enqueue(makePacket(100, Dscp::kBestEffort, 1));
  q.enqueue(makePacket(100, Dscp::kBestEffort, 2));
  EXPECT_EQ(q.dequeue()->id, 1u);
  EXPECT_EQ(q.dequeue()->id, 2u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueueTest, DropsWhenFull) {
  DropTailQueue q(250);
  EXPECT_TRUE(q.enqueue(makePacket(100)));
  EXPECT_TRUE(q.enqueue(makePacket(100)));
  EXPECT_FALSE(q.enqueue(makePacket(100)));  // 300 > 250
  EXPECT_EQ(q.stats().dropped_overflow, 1u);
  EXPECT_EQ(q.stats().bytes_dropped, 100);
  EXPECT_EQ(q.packetCount(), 2u);
}

TEST(DropTailQueueTest, OversizePacketCountedSeparately) {
  // Regression: a packet larger than the whole queue used to be lumped in
  // with congestion drops (dropped_overflow), hiding an MTU/capacity
  // misconfiguration behind what looked like ordinary congestion.
  DropTailQueue q(250);
  EXPECT_FALSE(q.enqueue(makePacket(300)));  // can never fit
  EXPECT_EQ(q.stats().dropped_oversize, 1u);
  EXPECT_EQ(q.stats().dropped_overflow, 0u);
  EXPECT_EQ(q.stats().bytes_dropped, 300);
  EXPECT_EQ(q.packetCount(), 0u);
}

TEST(DropTailQueueTest, OversizeDroppedEvenWhenEmpty) {
  DropTailQueue q(100);
  // The queue is completely empty, yet the packet still cannot fit.
  EXPECT_FALSE(q.enqueue(makePacket(101)));
  EXPECT_EQ(q.stats().dropped_oversize, 1u);
  // A packet exactly at capacity fits.
  EXPECT_TRUE(q.enqueue(makePacket(100)));
  // Congestion drop while an oversize drop already happened: counters stay
  // independent.
  EXPECT_FALSE(q.enqueue(makePacket(50)));
  EXPECT_EQ(q.stats().dropped_oversize, 1u);
  EXPECT_EQ(q.stats().dropped_overflow, 1u);
}

TEST(DropTailQueueTest, BytesTrackEnqueueDequeue) {
  DropTailQueue q(1000);
  q.enqueue(makePacket(300));
  q.enqueue(makePacket(200));
  EXPECT_EQ(q.bytes(), 500);
  q.dequeue();
  EXPECT_EQ(q.bytes(), 200);
}

TEST(DropTailQueueTest, FreedCapacityAcceptsAgain) {
  DropTailQueue q(200);
  EXPECT_TRUE(q.enqueue(makePacket(200)));
  EXPECT_FALSE(q.enqueue(makePacket(50)));
  q.dequeue();
  EXPECT_TRUE(q.enqueue(makePacket(50)));
}

TEST(DsQdiscTest, StrictPriorityEfFirst) {
  DsQdisc q(10'000, 10'000, 10'000);
  q.enqueue(makePacket(100, Dscp::kBestEffort, 1));
  q.enqueue(makePacket(100, Dscp::kExpedited, 2));
  q.enqueue(makePacket(100, Dscp::kLowLatency, 3));
  q.enqueue(makePacket(100, Dscp::kExpedited, 4));
  EXPECT_EQ(q.dequeue()->id, 2u);  // all EF first
  EXPECT_EQ(q.dequeue()->id, 4u);
  EXPECT_EQ(q.dequeue()->id, 3u);  // then LL
  EXPECT_EQ(q.dequeue()->id, 1u);  // then BE
}

TEST(DsQdiscTest, PerClassCapacity) {
  DsQdisc q(150, 150, 150);
  EXPECT_TRUE(q.enqueue(makePacket(100, Dscp::kExpedited)));
  EXPECT_FALSE(q.enqueue(makePacket(100, Dscp::kExpedited)));
  // BE class has its own independent budget.
  EXPECT_TRUE(q.enqueue(makePacket(100, Dscp::kBestEffort)));
  EXPECT_EQ(q.classQueue(Dscp::kExpedited).stats().dropped_overflow, 1u);
}

TEST(DsQdiscTest, EmptyAndBytes) {
  DsQdisc q(1000, 1000, 1000);
  EXPECT_TRUE(q.empty());
  q.enqueue(makePacket(100, Dscp::kLowLatency));
  q.enqueue(makePacket(50, Dscp::kBestEffort));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.classQueue(Dscp::kLowLatency).bytes(), 100);
  EXPECT_EQ(q.classQueue(Dscp::kBestEffort).bytes(), 50);
  q.dequeue();
  q.dequeue();
  EXPECT_TRUE(q.empty());
}

TEST(DsQdiscTest, BeCongestionDoesNotTouchEf) {
  DsQdisc q(10'000, 10'000, 300);
  for (int i = 0; i < 10; ++i) q.enqueue(makePacket(100, Dscp::kBestEffort));
  EXPECT_TRUE(q.enqueue(makePacket(100, Dscp::kExpedited)));
  EXPECT_EQ(q.classQueue(Dscp::kBestEffort).stats().dropped_overflow, 7u);
  EXPECT_EQ(q.classQueue(Dscp::kExpedited).stats().dropped_overflow, 0u);
}

}  // namespace
}  // namespace mgq::net
