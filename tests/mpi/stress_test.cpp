// Randomized stress/property tests for the MPI layer: every message sent
// is received exactly once, with the right payload, regardless of
// interleaving, tags, and sizes.
#include <gtest/gtest.h>

#include <map>

#include "mpi_test_util.hpp"

namespace mgq::mpi {
namespace {

using sim::Task;
using testing::Cluster;

class MpiStressSeedTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, MpiStressSeedTest, ::testing::Values(1, 2, 3));

TEST_P(MpiStressSeedTest, RandomAllPairsTrafficDeliversExactly) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  constexpr int kRanks = 6;
  constexpr int kMessagesPerSender = 30;
  Cluster cluster(kRanks, seed);

  // Deterministic plan derived from the seed: every rank knows what it
  // sends and what it should receive.
  struct PlannedMessage {
    int src, dst, tag;
    std::uint32_t size;
  };
  std::vector<PlannedMessage> plan;
  sim::Rng plan_rng(seed * 1000003);
  for (int src = 0; src < kRanks; ++src) {
    for (int i = 0; i < kMessagesPerSender; ++i) {
      PlannedMessage m;
      m.src = src;
      m.dst = static_cast<int>(plan_rng.uniformInt(0, kRanks - 1));
      if (m.dst == src) m.dst = (m.dst + 1) % kRanks;
      m.tag = static_cast<int>(plan_rng.uniformInt(0, 7));
      m.size = static_cast<std::uint32_t>(plan_rng.uniformInt(0, 20'000));
      plan.push_back(m);
    }
  }
  auto payloadByte = [](const PlannedMessage& m, std::size_t i) {
    return static_cast<std::uint8_t>((m.src * 31 + m.tag * 7 + i) & 0xff);
  };
  std::vector<int> expected_counts(kRanks, 0);
  for (const auto& m : plan) ++expected_counts[static_cast<size_t>(m.dst)];

  std::vector<int> received_counts(kRanks, 0);
  int payload_errors = 0;

  cluster.run(
      [&](Comm& comm) -> Task<> {
        // Receiver side: expected_counts messages, any source/tag.
        auto receiver = [](Comm c, int count, int& got,
                           int& errors, decltype(payloadByte) check,
                           const std::vector<PlannedMessage>& all) -> Task<> {
          std::map<std::pair<int, int>, int> seen_per_channel;
          for (int i = 0; i < count; ++i) {
            Message m = co_await c.recv(kAnySource, kAnyTag);
            ++got;
            // Identify the matching planned message: per (src, tag)
            // channel, messages arrive in plan order.
            const auto key = std::make_pair(m.source, m.tag);
            int occurrence = seen_per_channel[key]++;
            const PlannedMessage* planned = nullptr;
            for (const auto& p : all) {
              if (p.src == m.source && p.tag == m.tag && p.dst == c.rank()) {
                if (occurrence == 0) {
                  planned = &p;
                  break;
                }
                --occurrence;
              }
            }
            if (planned == nullptr || planned->size != m.size()) {
              ++errors;
              continue;
            }
            for (std::size_t b = 0; b < m.size(); ++b) {
              if (m.data[b] != check(*planned, b)) {
                ++errors;
                break;
              }
            }
          }
        };
        comm.world().simulator().spawn(
            receiver(comm, expected_counts[static_cast<size_t>(comm.rank())],
                     received_counts[static_cast<size_t>(comm.rank())],
                     payload_errors, payloadByte, plan));

        // Sender side: this rank's slice of the plan, in order.
        for (const auto& m : plan) {
          if (m.src != comm.rank()) continue;
          std::vector<std::uint8_t> payload(m.size);
          for (std::size_t b = 0; b < payload.size(); ++b) {
            payload[b] = payloadByte(m, b);
          }
          co_await comm.send(m.dst, m.tag, payload);
        }
      },
      sim::Duration::seconds(600));
  // The rank mains (senders) finish first; give the detached receivers
  // time to drain everything still in flight.
  cluster.sim.runFor(sim::Duration::seconds(60));

  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(received_counts[static_cast<size_t>(r)],
              expected_counts[static_cast<size_t>(r)])
        << "rank " << r;
  }
  EXPECT_EQ(payload_errors, 0);
}

TEST(MpiStressTest, InterleavedCollectivesAndP2P) {
  Cluster cluster(4);
  int failures = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    for (int round = 0; round < 10; ++round) {
      // P2P ring shift.
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      auto req = comm.irecv(prev, 42);
      co_await comm.send(next, 42, testing::bytesVec(round, comm.rank()));
      Message m = co_await comm.wait(std::move(req));
      if (m.data[0] != round || m.data[1] != prev) ++failures;
      // Collective in the same round.
      auto sum = co_await comm.allreduce(testing::doublesVec(1.0));
      if (sum[0] != comm.size()) ++failures;
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_EQ(failures, 0);
}

TEST(MpiStressTest, ManyCommunicatorsCoexist) {
  Cluster cluster(4);
  int failures = 0;
  cluster.run([&](Comm& comm) -> Task<> {
    if (comm.rank() > 1) co_return;
    std::vector<Comm> comms;
    for (int i = 0; i < 8; ++i) {
      comms.push_back(co_await comm.createPair(1 - comm.rank()));
    }
    // Same (src, dst, tag) on every derived comm simultaneously.
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        co_await comms[static_cast<size_t>(i)].send(
            1, 5, testing::bytesVec(i * 11));
      }
    } else if (comm.rank() == 1) {
      // Receive in reverse comm order: context isolation must hold.
      for (int i = 7; i >= 0; --i) {
        Message m = co_await comms[static_cast<size_t>(i)].recv(0, 5);
        if (m.data[0] != i * 11) ++failures;
      }
    }
  });
  ASSERT_TRUE(cluster.world->allFinished());
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace mgq::mpi
