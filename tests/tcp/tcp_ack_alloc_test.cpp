// Pure ACKs carry no payload, and must not touch the buffer pool: a
// receiver ACKing a bulk transfer emits one segment per delivered
// packet-pair, so a single pool allocation on that path would turn the
// hot ACK clock into an allocator benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "net/buffer.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::tcp {
namespace {

sim::Task<> server(net::Host& host, net::PortId port, std::int64_t bytes,
                   std::int64_t* delivered) {
  TcpListener listener(host, port);
  auto socket = co_await listener.accept();
  *delivered = co_await socket->drain(bytes, /*verify_pattern=*/true);
}

sim::Task<> client(net::Host& host, net::NodeId dst, net::PortId port,
                   std::int64_t bytes) {
  auto socket = co_await TcpSocket::connect(host, dst, port);
  co_await socket->sendBulk(bytes);
  co_await socket->flush();
}

TEST(TcpAckAllocTest, BulkTransferAcksAreAllocationFree) {
  constexpr std::int64_t kBytes = 4'000'000;
  const auto live_before = net::BufferPool::totalLive();
  std::uint64_t allocs = 0;
  {
    sim::Simulator simulator(/*seed=*/42);
    net::Network network(simulator);
    auto& a = network.addHost("src");
    auto& b = network.addHost("dst");
    net::LinkConfig link;
    link.rate_bps = 1e9;
    link.delay = sim::Duration::micros(100);
    network.connect(a, b, link);
    network.computeRoutes();

    std::int64_t delivered = 0;
    const auto allocs_before = net::BufferPool::local().stats().allocations;
    simulator.spawn(server(b, 5001, kBytes, &delivered));
    simulator.spawn(client(a, b.id(), 5001, kBytes));
    simulator.run();
    EXPECT_EQ(delivered, kBytes);
    allocs = net::BufferPool::local().stats().allocations - allocs_before;
  }
  // The transfer moves ~2740 data segments and triggers at least as many
  // ACKs. The data path allocates one 16 KB ring chunk per 16 KB of
  // stream (sender pattern chunks + receiver reassembly) plus an occasional
  // boundary gather — a few thousand allocations in total. ACKs touching
  // the pool would at least double that; a tight ceiling pins them to
  // zero-allocation.
  EXPECT_LE(allocs, static_cast<std::uint64_t>(kBytes / 4096 + 256));
  EXPECT_EQ(net::BufferPool::totalLive(), live_before)
      << "teardown leaked pooled payload buffers";
}

}  // namespace
}  // namespace mgq::tcp
