#include "perf_dataplane.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/world.hpp"
#include "net/classifier.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/token_bucket.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::perf {
namespace {

using Clock = std::chrono::steady_clock;

// End-of-run invariants stay on in release builds (the perf binaries are
// compiled with NDEBUG, which would silence assert): a mix that did not
// actually deliver its traffic must not report a throughput number.
void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perf mix invariant failed: %s\n", what);
    std::abort();
  }
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

MixResult finishMix(std::string name, std::uint64_t operations,
                    std::uint64_t events_executed, Clock::time_point start) {
  MixResult r;
  r.name = std::move(name);
  r.operations = operations;
  r.events_executed = events_executed;
  r.wall_seconds = secondsSince(start);
  r.ops_per_sec = r.wall_seconds > 0
                      ? static_cast<double>(r.operations) / r.wall_seconds
                      : 0.0;
  return r;
}

constexpr std::int32_t kPayloadBytes = 1460;
constexpr std::int32_t kWireOverhead =
    net::kIpHeaderBytes + net::kTcpHeaderBytes;

/// A data segment the way TcpSocket emits one: header metadata plus an
/// MSS of payload. The template is copied once per injected packet, so
/// the per-packet payload-materialization cost is part of the measure.
net::Packet makeDataPacket(const net::FlowKey& flow) {
  net::TcpHeader h;
  h.seq = 1;
  h.ack = 1;
  h.is_ack = true;
  h.window = 65535;
  h.payload = net::BufSlice::fill(static_cast<std::size_t>(kPayloadBytes), 0xa5);
  net::Packet p;
  p.flow = flow;
  p.size_bytes = kPayloadBytes + kWireOverhead;
  p.header = std::move(h);
  return p;
}

/// Counts packets delivered to a bound port.
struct CountingSink : net::PacketReceiver {
  std::uint64_t packets = 0;
  std::int64_t bytes = 0;
  void onPacket(net::Packet p) override {
    ++packets;
    bytes += p.size_bytes;
  }
};

/// Paced packet source: re-schedules itself per packet so the event heap
/// stays shallow and the measurement tracks per-hop forwarding cost, not
/// O(log n) sifts through a pile of pre-scheduled injections.
struct Injector {
  sim::Simulator& sim;
  net::Host& src;
  const net::Packet& tmpl;
  sim::Duration gap;
  int remaining = 0;

  void fire() {
    net::Packet p = tmpl;
    src.sendPacket(std::move(p));
    if (--remaining > 0) {
      sim.schedule(gap, [this] { fire(); });
    }
  }
};

}  // namespace

MixResult runHopForward(int packets, int repeat) {
  sim::Simulator simulator(/*seed=*/42);
  net::Network network(simulator);
  auto& a = network.addHost("src");
  auto& b = network.addHost("dst");
  auto& r1 = network.addRouter("r1");
  auto& r2 = network.addRouter("r2");
  auto& r3 = network.addRouter("r3");
  net::LinkConfig link;
  link.rate_bps = 10e9;  // fast links: per-hop CPU cost dominates
  link.delay = sim::Duration::micros(5);
  network.connect(a, r1, link);
  network.connect(r1, r2, link);
  network.connect(r2, r3, link);
  network.connect(r3, b, link);
  network.computeRoutes();

  CountingSink sink;
  const net::PortId port = 7;
  b.bind(net::Protocol::kTcp, port, &sink);
  const net::FlowKey flow{a.id(), b.id(), 40000, port, net::Protocol::kTcp};
  const auto tmpl = makeDataPacket(flow);

  // Pace injections wider than the 1.2 us serialization time so queues
  // stay shallow and every packet traverses all four hops.
  Injector injector{simulator, a, tmpl, sim::Duration::micros(2)};
  const auto start = Clock::now();
  for (int r = 0; r < repeat; ++r) {
    injector.remaining = packets;
    simulator.schedule(sim::Duration::zero(), [&injector] { injector.fire(); });
    simulator.run();
  }
  const auto expected =
      static_cast<std::uint64_t>(packets) * static_cast<std::uint64_t>(repeat);
  check(sink.packets == expected, "hop_forward delivered every packet");
  // Four wire hops per delivered packet.
  return finishMix("hop_forward", sink.packets * 4,
                   simulator.eventsExecuted(), start);
}

MixResult runPoliceQdisc(int packets, int repeat) {
  sim::Simulator simulator(/*seed=*/42);
  const net::FlowKey flow{1, 2, 40000, 7, net::Protocol::kTcp};

  net::DsPolicy policy;
  // Three non-matching rules ahead of the premium rule, the shape of an
  // edge with several active reservations.
  for (net::PortId p : {net::PortId{100}, net::PortId{200}, net::PortId{300}}) {
    net::MarkingRule r;
    r.match.dst_port = p;
    r.mark = net::Dscp::kExpedited;
    policy.addRule(std::move(r));
  }
  const std::int64_t total_bytes = static_cast<std::int64_t>(packets) *
                                   repeat * (kPayloadBytes + kWireOverhead);
  net::MarkingRule premium;
  premium.match = net::FlowMatch::exact(flow);
  premium.mark = net::Dscp::kExpedited;
  // Deep, fast bucket: everything conforms; the per-packet policer cost
  // is what we are measuring, not drops.
  premium.bucket = std::make_shared<net::TokenBucket>(
      simulator, /*rate_bps=*/1e12, /*depth_bytes=*/total_bytes + 1500);
  policy.addRule(std::move(premium));

  net::DsQdisc qdisc(256 * 1024, 64 * 1024, 64 * 1024);
  const auto tmpl = makeDataPacket(flow);
  std::uint64_t ops = 0;
  std::int64_t sink = 0;
  const auto start = Clock::now();
  for (int r = 0; r < repeat; ++r) {
    for (int i = 0; i < packets; ++i) {
      net::Packet p = tmpl;
      auto marked = policy.process(std::move(p));
      assert(marked.has_value());
      qdisc.enqueue(std::move(*marked));
      auto out = qdisc.dequeue();
      assert(out.has_value());
      sink += out->size_bytes;
      ++ops;
    }
  }
  (void)sink;
  return finishMix("police_qdisc", ops, 0, start);
}

namespace {

sim::Task<> bulkServer(net::Host& host, net::PortId port, std::int64_t bytes,
                       std::int64_t* delivered) {
  tcp::TcpListener listener(host, port);
  auto socket = co_await listener.accept();
  *delivered = co_await socket->drain(bytes, /*verify_pattern=*/true);
}

sim::Task<> bulkClient(net::Host& host, net::NodeId dst, net::PortId port,
                       std::int64_t bytes) {
  auto socket = co_await tcp::TcpSocket::connect(host, dst, port);
  co_await socket->sendBulk(bytes);
  co_await socket->flush();
}

}  // namespace

MixResult runTcpBulk(std::int64_t bytes) {
  sim::Simulator simulator(/*seed=*/42);
  net::Network network(simulator);
  auto& a = network.addHost("src");
  auto& b = network.addHost("dst");
  net::LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = sim::Duration::micros(100);
  network.connect(a, b, link);
  network.computeRoutes();

  const net::PortId port = 5001;
  std::int64_t delivered = 0;
  const auto allocs_before = net::BufferPool::local().stats().allocations;
  simulator.spawn(bulkServer(b, port, bytes, &delivered));
  simulator.spawn(bulkClient(a, b.id(), port, bytes));
  const auto start = Clock::now();
  simulator.run();
  const auto r = finishMix("tcp_bulk", static_cast<std::uint64_t>(delivered),
                           simulator.eventsExecuted(), start);
  check(delivered == bytes, "tcp_bulk drained the full transfer");
  // Pure ACKs must stay allocation-free: the transfer generates roughly
  // one ACK per two MSS (~bytes/2920), so if each ACK touched the pool
  // the allocation count would dwarf the data path's ~one pooled chunk
  // plus one boundary gather per 16 KB ring chunk (~bytes/8192 total).
  const auto allocs =
      net::BufferPool::local().stats().allocations - allocs_before;
  check(allocs <= static_cast<std::uint64_t>(bytes / 4096 + 1024),
        "tcp_bulk pure-ACK path stayed pool-allocation-free");
  return r;
}

namespace {

sim::Task<> pingpongMain(mpi::Comm& comm, int rounds,
                         std::int32_t message_bytes, std::int64_t* delivered) {
  const std::vector<std::uint8_t> block(
      static_cast<std::size_t>(message_bytes), 1);
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) {
      co_await comm.send(1, 0, block);
      const auto m = co_await comm.recv(1, 0);
      *delivered += static_cast<std::int64_t>(m.size());
    } else {
      const auto m = co_await comm.recv(0, 0);
      *delivered += static_cast<std::int64_t>(m.size());
      co_await comm.send(0, 0, block);
    }
  }
}

}  // namespace

MixResult runMpiPingpong(int rounds, std::int32_t message_bytes) {
  sim::Simulator simulator(/*seed=*/42);
  net::Network network(simulator);
  auto& a = network.addHost("rank0");
  auto& b = network.addHost("rank1");
  net::LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = sim::Duration::micros(100);
  network.connect(a, b, link);
  network.computeRoutes();

  mpi::World::Config config;
  config.hosts = {&a, &b};
  mpi::World world(simulator, config);
  std::int64_t delivered = 0;
  world.launch([rounds, message_bytes, &delivered](mpi::Comm& comm) {
    return pingpongMain(comm, rounds, message_bytes, &delivered);
  });
  const auto start = Clock::now();
  simulator.run();
  check(world.allFinished(), "mpi_pingpong ranks all finished");
  return finishMix("mpi_pingpong", static_cast<std::uint64_t>(delivered),
                   simulator.eventsExecuted(), start);
}

}  // namespace mgq::perf
