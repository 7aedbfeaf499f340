#include "gq/shaper.hpp"

#include <gtest/gtest.h>

#include "gara/gara.hpp"
#include "gara/resource_manager.hpp"
#include "net/network.hpp"

namespace mgq::gq {
namespace {

using sim::Duration;
using sim::Task;

struct Pair {
  explicit Pair(sim::Simulator& sim) : net(sim) {
    a = &net.addHost("a");
    b = &net.addHost("b");
    net.connect(*a, *b, net::LinkConfig{});
    net.computeRoutes();
  }
  net::Network net;
  net::Host* a;
  net::Host* b;
};

TEST(ShaperTest, SendTakesAtLeastTheShapedTime) {
  sim::Simulator sim;
  Pair pair(sim);
  tcp::TcpListener listener(*pair.b, 5000);
  double finish = -1;
  auto server = [](tcp::TcpListener& l) -> Task<> {
    auto s = co_await l.accept();
    (void)co_await s->drain(INT64_MAX / 2, false);
  };
  auto client = [](sim::Simulator& sm, net::Host& h, net::NodeId dst,
                   double& out) -> Task<> {
    auto s = co_await tcp::TcpSocket::connect(h, dst, 5000);
    ShapedSocket shaped(*s, 800e3, 2'000);  // 100 KB/s
    co_await shaped.sendBulk(100'000);
    out = sm.now().toSeconds();
  };
  sim.spawn(server(listener));
  sim.spawn(client(sim, *pair.a, pair.b->id(), finish));
  sim.runFor(Duration::seconds(30));
  // 100 KB at 100 KB/s with a 2 KB initial burst: just under a second.
  EXPECT_GT(finish, 0.9);
  EXPECT_LT(finish, 1.2);
}

TEST(ShaperTest, ReconfigureChangesPace) {
  sim::Simulator sim;
  Pair pair(sim);
  tcp::TcpListener listener(*pair.b, 5000);
  tcp::TcpSocket* receiver = nullptr;
  auto server = [](tcp::TcpListener& l, tcp::TcpSocket*& out) -> Task<> {
    auto s = co_await l.accept();
    out = s.get();
    (void)co_await s->drain(INT64_MAX / 2, false);
  };
  auto client = [](sim::Simulator& sm, net::Host& h,
                   net::NodeId dst) -> Task<> {
    auto s = co_await tcp::TcpSocket::connect(h, dst, 5000);
    ShapedSocket shaped(*s, 1e6, 2'000);
    auto feeder = [](ShapedSocket& sock) -> Task<> {
      for (;;) co_await sock.sendBulk(10'000);
    };
    sm.spawn(feeder(shaped));
    co_await sm.delay(Duration::seconds(5));
    shaped.configure(4e6, 2'000);  // 4x faster from t=5
    co_await sm.delay(Duration::seconds(5));
  };
  sim.spawn(server(listener, receiver));
  sim.spawn(client(sim, *pair.a, pair.b->id()));
  sim.runUntil(sim::TimePoint::fromSeconds(4.5));
  const auto before = receiver->bytesDelivered();
  sim.runUntil(sim::TimePoint::fromSeconds(5.0));
  const auto at5 = receiver->bytesDelivered();
  sim.runUntil(sim::TimePoint::fromSeconds(9.5));
  const auto later = receiver->bytesDelivered();
  const double rate_before =
      static_cast<double>(at5 - before) * 8 / 0.5;
  const double rate_after =
      static_cast<double>(later - at5) * 8 / 4.5;
  EXPECT_NEAR(rate_before, 1e6, 0.2e6);
  EXPECT_NEAR(rate_after, 4e6, 0.5e6);
}

TEST(ShaperTest, ReservationResizeRepaceTracksTheNewRateWithinOneDepth) {
  // The adaptive controller's resize step end to end: an active network
  // reservation enforcing a policer on the path is modified mid-stream
  // (fresh bucket at the new rate) and the ShapedSocket is re-paced to
  // match. The policer's conformed throughput must track each rate to
  // within one bucket depth over the measurement window.
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.addHost("a");
  auto& b = net.addHost("b");
  auto& router = net.addRouter("edge");
  net.connect(a, router, net::LinkConfig{});
  net.connect(router, b, net::LinkConfig{});
  net.computeRoutes();

  gara::NetworkResourceManager manager(20e6, *router.interfaces()[0]);
  gara::Gara gara(sim);
  gara.registerManager("edge", manager);
  gara::ReservationRequest request;
  request.start = sim.now();
  request.amount = 2e6;
  request.flow.dst = b.id();
  request.flow.dst_port = 5000;
  request.flow.proto = net::Protocol::kTcp;
  // Demote (not drop) out-of-profile packets: the shaper paces payload
  // while the policer counts wire bytes, so a pacing-rate flow runs a few
  // percent hot and a hard-drop policer would stall it on RTOs. Demotion
  // keeps the bucket saturated, making its conformed throughput a clean
  // readout of the enforced rate.
  request.out_action = net::OutOfProfileAction::kDemote;
  auto outcome = gara.reserve("edge", request);
  ASSERT_TRUE(static_cast<bool>(outcome)) << outcome.error;
  auto handle = outcome.handle;

  tcp::TcpListener listener(b, 5000);
  tcp::TcpSocket* receiver = nullptr;
  auto server = [](tcp::TcpListener& l, tcp::TcpSocket*& out) -> Task<> {
    auto s = co_await l.accept();
    out = s.get();
    (void)co_await s->drain(INT64_MAX / 2, false);
  };
  ShapedSocket* shaped_ptr = nullptr;
  auto client = [](net::Host& h, net::NodeId dst,
                   ShapedSocket*& out) -> Task<> {
    auto s = co_await tcp::TcpSocket::connect(h, dst, 5000);
    ShapedSocket shaped(*s, 2e6,
                        net::TokenBucket::depthForRate(
                            2e6, net::TokenBucket::kNormalDivisor));
    out = &shaped;
    for (;;) co_await shaped.sendBulk(10'000);
  };
  sim.spawn(server(listener, receiver));
  sim.spawn(client(a, b.id(), shaped_ptr));

  // Old-rate window [2, 5): delivery through the policer tracks 2 Mb/s.
  sim.runUntil(sim::TimePoint::fromSeconds(2.0));
  ASSERT_NE(handle->bucket, nullptr);
  ASSERT_NE(receiver, nullptr);
  const auto old_bucket = handle->bucket;
  const auto delivered_at_2 = receiver->bytesDelivered();
  sim.runUntil(sim::TimePoint::fromSeconds(5.0));
  const auto delivered_at_5 = receiver->bytesDelivered();
  const double old_depth = static_cast<double>(
      net::TokenBucket::depthForRate(2e6, net::TokenBucket::kNormalDivisor));
  EXPECT_NEAR(static_cast<double>(delivered_at_5 - delivered_at_2),
              2e6 / 8.0 * 3.0, old_depth + 4'000.0);

  // Resize mid-stream: modify re-enforces a fresh policer bucket sized
  // for 8 Mb/s, and the application re-paces its shaper to match.
  ASSERT_TRUE(gara.modify(handle, 8e6));
  ASSERT_NE(shaped_ptr, nullptr);
  shaped_ptr->configure(8e6, net::TokenBucket::depthForRate(
                                 8e6, net::TokenBucket::kNormalDivisor));
  ASSERT_NE(handle->bucket, nullptr);
  EXPECT_NE(handle->bucket, old_bucket) << "modify must re-enforce";
  EXPECT_DOUBLE_EQ(handle->bucket->rateBps(), 8e6);
  EXPECT_EQ(handle->bucket->depthBytes(),
            net::TokenBucket::depthForRate(8e6,
                                           net::TokenBucket::kNormalDivisor));

  // New-rate window [6, 10): the conformed rate tracks the new amount
  // within one (new) bucket depth plus a little TCP slack.
  sim.runUntil(sim::TimePoint::fromSeconds(6.0));
  const auto delivered_at_6 = receiver->bytesDelivered();
  sim.runUntil(sim::TimePoint::fromSeconds(10.0));
  const auto delivered_at_10 = receiver->bytesDelivered();
  const double new_depth = static_cast<double>(
      net::TokenBucket::depthForRate(8e6, net::TokenBucket::kNormalDivisor));
  EXPECT_NEAR(static_cast<double>(delivered_at_10 - delivered_at_6),
              8e6 / 8.0 * 4.0, new_depth + 16'000.0);

  // The pacing-rate flow ran a few percent hot of its wire-byte profile
  // (the shaper paces payload; the policer counts headers too), so a
  // small demoted fraction is expected — but the stream stayed almost
  // entirely in profile through both rates.
  const auto& stats = handle->bucket->stats();
  EXPECT_GT(stats.conformed, 0u);
  EXPECT_LT(old_bucket->stats().policed, old_bucket->stats().conformed / 10);
  EXPECT_LT(stats.policed, stats.conformed / 10);
}

}  // namespace
}  // namespace mgq::gq
