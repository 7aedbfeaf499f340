#include "mpi/world.hpp"

#include <array>
#include <cassert>

#include "util/logging.hpp"

namespace mgq::mpi {

World::World(sim::Simulator& sim, Config config)
    : sim_(sim), config_(std::move(config)) {
  assert(!config_.hosts.empty());
  ranks_.reserve(config_.hosts.size());
  for (std::size_t r = 0; r < config_.hosts.size(); ++r) {
    auto rank = std::make_unique<RankContext>(sim_);
    rank->world_rank = static_cast<int>(r);
    rank->host = config_.hosts[r];
    rank->listener = std::make_unique<tcp::TcpListener>(
        *rank->host, static_cast<net::PortId>(config_.base_port + r),
        config_.tcp);
    ranks_.push_back(std::move(rank));
  }
  // World communicator (context 0) for every rank, then start accepting.
  std::vector<int> members(ranks_.size());
  for (std::size_t r = 0; r < members.size(); ++r) {
    members[r] = static_cast<int>(r);
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r]->world_comm = Comm(*this, 0, members, static_cast<int>(r));
    sim_.spawn(acceptLoop(*ranks_[r]));
  }
}

World::~World() {
  // Suspended coroutine frames (rank mains, reader loops) may own sockets
  // that refer to our listeners; unwind them while everything is alive.
  sim_.destroyProcesses();
}

void World::launch(std::function<sim::Task<>(Comm&)> rank_main) {
  for (auto& rank : ranks_) {
    auto wrapper = [](World* world, RankContext* ctx,
                      std::function<sim::Task<>(Comm&)> main) -> sim::Task<> {
      co_await main(ctx->world_comm);
      ctx->finished = true;
      (void)world;
    };
    sim_.spawn(wrapper(this, rank.get(), rank_main));
  }
}

bool World::allFinished() const {
  for (const auto& rank : ranks_) {
    if (!rank->finished) return false;
  }
  return true;
}

sim::Task<> World::acceptLoop(RankContext& rank) {
  for (;;) {
    auto socket = co_await rank.listener->accept();
    auto* raw = socket.get();
    accepted_sockets_.push_back(std::move(socket));
    sim_.spawn(readerLoop(rank, raw));
  }
}

sim::Task<> World::readerLoop(RankContext& rank, tcp::TcpSocket* socket) {
  std::vector<std::uint8_t> header(WireHeader::kBytes);
  for (;;) {
    try {
      co_await socket->recvExactly(header);
    } catch (const std::runtime_error&) {
      co_return;  // EOF: peer closed the connection
    }
    const auto wire = WireHeader::decode(header);
    Envelope env;
    env.context = wire.context;
    env.source = wire.source;
    env.tag = wire.tag;
    env.data.resize(static_cast<std::size_t>(wire.length));
    if (wire.length > 0) co_await socket->recvExactly(env.data);
    rank.matching.deliver(std::move(env));
  }
}

World::OutboundConnection& World::connectionTo(RankContext& rank,
                                               int dst_world) {
  auto [it, inserted] = rank.outgoing.try_emplace(dst_world);
  if (inserted) {
    it->second.write_mutex = std::make_unique<sim::AsyncMutex>(sim_);
    it->second.ready = std::make_unique<sim::Condition>(sim_);
  }
  return it->second;
}

sim::Task<net::FlowKey> World::establishConnection(int src_world,
                                                   int dst_world) {
  auto& rank = *ranks_.at(static_cast<std::size_t>(src_world));
  auto& conn = connectionTo(rank, dst_world);
  if (conn.socket == nullptr) {
    if (conn.connecting) {
      co_await awaitUntil(*conn.ready,
                          [&conn] { return conn.socket != nullptr; });
    } else {
      conn.connecting = true;
      auto& dst_host = hostOf(dst_world);
      auto socket = co_await tcp::TcpSocket::connect(
          *rank.host, dst_host.id(),
          static_cast<net::PortId>(config_.base_port + dst_world),
          config_.tcp);
      conn.socket = std::move(socket);
      conn.connecting = false;
      conn.ready->notifyAll();
    }
  }
  co_return conn.socket->flowKey();
}

sim::Task<> World::sendBytes(int src_world, int dst_world,
                             std::int32_t context, std::int32_t comm_source,
                             std::int32_t tag,
                             std::span<const std::uint8_t> payload) {
  co_await establishConnection(src_world, dst_world);
  auto& rank = *ranks_.at(static_cast<std::size_t>(src_world));
  auto& conn = connectionTo(rank, dst_world);

  WireHeader wire{context, comm_source, tag,
                  static_cast<std::int64_t>(payload.size())};
  std::array<std::uint8_t, WireHeader::kBytes> header;
  wire.encode(header);

  // Serialize writers so message frames never interleave on the stream.
  co_await conn.write_mutex->lock();
  co_await conn.socket->send(header);
  if (!payload.empty()) co_await conn.socket->send(payload);
  conn.write_mutex->unlock();
}

tcp::TcpSocket* World::connectionSocket(int src_world, int dst_world) {
  auto& rank = *ranks_.at(static_cast<std::size_t>(src_world));
  const auto it = rank.outgoing.find(dst_world);
  return it == rank.outgoing.end() ? nullptr : it->second.socket.get();
}

std::int32_t World::allocContext(std::int32_t parent, std::int64_t salt,
                                 int counter) {
  const auto key = std::make_tuple(parent, salt, counter);
  const auto it = context_cache_.find(key);
  if (it != context_cache_.end()) return it->second;
  const std::int32_t ctx = next_context_++;
  assert(ctx < 0x40000000 && "context id space exhausted");
  context_cache_.emplace(key, ctx);
  return ctx;
}

int World::nextPairDerivation(int world_rank, std::int32_t parent,
                              int peer) {
  auto& rank = *ranks_.at(static_cast<std::size_t>(world_rank));
  return rank.pair_derivations[{parent, peer}]++;
}

}  // namespace mgq::mpi
