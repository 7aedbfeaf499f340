#include "apps/workloads.hpp"

#include <gtest/gtest.h>

#include <string>

#include "apps/garnet_rig.hpp"
#include "apps/bandwidth_trace.hpp"
#include "mpi/world.hpp"

namespace mgq::apps {
namespace {

using sim::Duration;
using sim::Task;
using sim::TimePoint;

// Built with append, not `"n" + std::to_string(r)`: GCC 12 reports a false
// -Wrestrict on that operator+ in Release builds.
std::string hostName(int r) {
  std::string name = "n";
  name += std::to_string(r);
  return name;
}

TEST(PingPongTest, UncontendedThroughputScalesWithMessageSize) {
  auto goodput = [](int message_bytes) {
    GarnetRig rig;  // no contention
    PingPongStats stats;
    rig.world.launch([&](mpi::Comm& comm) -> Task<> {
      co_await runPingPong(comm, message_bytes, TimePoint::fromSeconds(5),
                           comm.rank() == 0 ? &stats : nullptr);
    });
    rig.sim.runUntil(TimePoint::fromSeconds(15));
    return stats.oneWayThroughputKbps(5.0);
  };
  const double small = goodput(1'000);
  const double large = goodput(15'000);
  // Larger messages amortize the RTT: throughput grows.
  EXPECT_GT(large, small * 3);
  EXPECT_GT(small, 100.0);
}

TEST(PingPongTest, BothSidesCountTheSameTraffic) {
  GarnetRig rig;
  PingPongStats s0, s1;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    co_await runPingPong(comm, 5'000, TimePoint::fromSeconds(3),
                         comm.rank() == 0 ? &s0 : &s1);
  });
  rig.sim.runUntil(TimePoint::fromSeconds(10));
  EXPECT_GT(s0.round_trips, 0);
  // Rank 1 received every ping; rank 0 received every pong.
  EXPECT_EQ(s0.bytes_received, s1.bytes_received);
}

TEST(VisualizationTest, HitsConfiguredFrameRateUncontended) {
  GarnetRig rig;
  VisualizationStats stats;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      VisualizationConfig config;
      config.frames_per_second = 10;
      config.frame_bytes = 10'000;
      co_await visualizationSender(comm, config, TimePoint::fromSeconds(10),
                                   &stats);
    } else {
      co_await visualizationReceiver(comm, &stats);
    }
  });
  rig.sim.runUntil(TimePoint::fromSeconds(20));
  EXPECT_NEAR(static_cast<double>(stats.frames_sent), 100.0, 3.0);
  EXPECT_EQ(stats.frames_delivered, stats.frames_sent);
  EXPECT_NEAR(stats.deliveredKbps(10.0), 800.0, 60.0);
}

TEST(VisualizationTest, CpuWorkLimitsFrameRate) {
  // 0.2 CPU-seconds per frame cannot sustain 10 fps: at most 5 fps.
  GarnetRig rig;
  const auto job = rig.sender_cpu.registerJob("viz");
  VisualizationStats stats;
  rig.world.launch([&](mpi::Comm& comm) -> Task<> {
    if (comm.rank() == 0) {
      VisualizationConfig config;
      config.frames_per_second = 10;
      config.frame_bytes = 1'000;
      config.cpu = &rig.sender_cpu;
      config.cpu_job = job;
      config.cpu_seconds_per_frame = 0.2;
      co_await visualizationSender(comm, config, TimePoint::fromSeconds(10),
                                   &stats);
    } else {
      co_await visualizationReceiver(comm, &stats);
    }
  });
  rig.sim.runUntil(TimePoint::fromSeconds(20));
  EXPECT_LE(stats.frames_sent, 52);
  EXPECT_GE(stats.frames_sent, 45);
}

class FiniteDifferenceSizeTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, FiniteDifferenceSizeTest,
                         ::testing::Values(1, 2, 4, 8));

TEST_P(FiniteDifferenceSizeTest, MatchesSerialReference) {
  const int ranks = GetParam();
  // Star network with one rank per host.
  sim::Simulator sim;
  net::Network net(sim);
  auto& router = net.addRouter("switch");
  std::vector<net::Host*> hosts;
  for (int r = 0; r < ranks; ++r) {
    auto& h = net.addHost(hostName(r));
    net.connect(h, router, net::LinkConfig{});
    hosts.push_back(&h);
  }
  net.computeRoutes();
  mpi::World world(sim, mpi::World::Config{hosts, {}, 6000});

  FiniteDifferenceConfig config;
  config.global_rows = 32;
  config.cols = 16;
  config.iterations = 25;
  std::vector<double> checksums(static_cast<size_t>(ranks), -1);
  world.launch([&](mpi::Comm& comm) -> Task<> {
    auto result = co_await runFiniteDifference(comm, config);
    checksums[static_cast<size_t>(comm.rank())] = result.checksum;
  });
  sim.runFor(Duration::seconds(300));

  const double reference =
      finiteDifferenceReferenceChecksum(32, 16, 25);
  for (int r = 0; r < ranks; ++r) {
    EXPECT_NEAR(checksums[static_cast<size_t>(r)], reference, 1e-9)
        << "rank " << r << "/" << ranks;
  }
}

TEST(FiniteDifferenceTest, HaloBytesAccountedPerNeighbor) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& router = net.addRouter("switch");
  std::vector<net::Host*> hosts;
  for (int r = 0; r < 4; ++r) {
    auto& h = net.addHost(hostName(r));
    net.connect(h, router, net::LinkConfig{});
    hosts.push_back(&h);
  }
  net.computeRoutes();
  mpi::World world(sim, mpi::World::Config{hosts, {}, 6000});
  FiniteDifferenceConfig config;
  config.global_rows = 16;
  config.cols = 8;
  config.iterations = 10;
  std::vector<std::int64_t> halo(4, -1);
  world.launch([&](mpi::Comm& comm) -> Task<> {
    auto result = co_await runFiniteDifference(comm, config);
    halo[static_cast<size_t>(comm.rank())] = result.halo_bytes;
  });
  sim.runFor(Duration::seconds(120));
  const auto row = static_cast<std::int64_t>(8 * sizeof(double));
  // Interior ranks exchange two rows per iteration, edge ranks one.
  EXPECT_EQ(halo[0], 10 * row);
  EXPECT_EQ(halo[1], 10 * 2 * row);
  EXPECT_EQ(halo[2], 10 * 2 * row);
  EXPECT_EQ(halo[3], 10 * row);
}

TEST(BandwidthTraceTest, MeasuresCounterRate) {
  sim::Simulator sim;
  std::int64_t counter = 0;
  // 1000 bytes every 100 ms = 80 kb/s.
  auto feeder = [](sim::Simulator& s, std::int64_t& c) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await s.delay(Duration::millis(100));
      c += 1000;
    }
  };
  BandwidthTrace sampler(sim, [&] { return counter; },
                           Duration::seconds(1.0));
  sampler.start();
  sim.spawn(feeder(sim, counter));
  sim.runUntil(TimePoint::fromSeconds(10.5));
  sampler.stop();
  ASSERT_GE(sampler.series().size(), 9u);
  double sum = 0.0;
  int n = 0;
  for (const auto& p : sampler.series()) {
    if (p.t_seconds > 1.0 && p.t_seconds <= 10.0) {
      sum += p.kbps;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_NEAR(sum / n, 80.0, 2.0);
}

TEST(GarnetRigTest, ContentionStartsAndStops) {
  GarnetRig rig;
  rig.startContention(30e6);
  rig.sim.runFor(Duration::seconds(1));
  const auto bytes_after_1s = rig.contention_sink.bytesReceived();
  EXPECT_GT(bytes_after_1s, 3'000'000);  // ~30 Mb/s arriving
  rig.contention->stop();
  rig.sim.runFor(Duration::seconds(1));
  const auto bytes_after_stop = rig.contention_sink.bytesReceived();
  rig.sim.runFor(Duration::seconds(1));
  EXPECT_EQ(rig.contention_sink.bytesReceived(), bytes_after_stop);
  (void)bytes_after_1s;
}

}  // namespace
}  // namespace mgq::apps
