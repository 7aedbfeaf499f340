// World: the MPI job. Binds ranks to simulated hosts, owns per-rank
// runtime state (listener, connection cache, matching engine), launches
// rank main functions as simulated processes, and allocates communicator
// context ids deterministically.
//
// Transport: lazy TCP connections. Messages from world rank i to j travel
// on a connection initiated by i to j's listener (port = base_port + j),
// so each ordered pair has one FIFO byte stream — which provides MPI's
// non-overtaking guarantee per (source, communicator).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mpi/attributes.hpp"
#include "mpi/comm.hpp"
#include "mpi/matching.hpp"
#include "net/host.hpp"
#include "sim/async_mutex.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_socket.hpp"

namespace mgq::mpi {

class World {
 public:
  struct Config {
    /// hosts[r] runs world rank r. The same host may appear repeatedly
    /// (multiple ranks per node, as in the paper's 8-processor machines).
    std::vector<net::Host*> hosts;
    tcp::TcpConfig tcp;
    net::PortId base_port = 6000;
  };

  World(sim::Simulator& sim, Config config);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  sim::Simulator& simulator() { return sim_; }
  AttributeRegistry& attributes() { return attributes_; }
  net::Host& hostOf(int world_rank) {
    return *ranks_.at(static_cast<size_t>(world_rank))->host;
  }
  const tcp::TcpConfig& tcpConfig() const { return config_.tcp; }

  /// Spawns `rank_main` for every rank with its MPI_COMM_WORLD-equivalent.
  void launch(std::function<sim::Task<>(Comm&)> rank_main);
  /// True once every launched rank main has returned.
  bool allFinished() const;

  /// The world communicator as seen by `world_rank` (valid after
  /// construction; usable even without launch() for tests).
  Comm& worldComm(int world_rank) {
    return ranks_.at(static_cast<size_t>(world_rank))->world_comm;
  }

  // --- internals used by Comm ---------------------------------------------
  sim::Task<> sendBytes(int src_world, int dst_world, std::int32_t context,
                        std::int32_t comm_source, std::int32_t tag,
                        std::span<const std::uint8_t> payload);
  MatchingEngine& matchingOf(int world_rank) {
    return ranks_.at(static_cast<size_t>(world_rank))->matching;
  }
  /// Deterministic derived-context allocation: every rank asking for the
  /// same (parent, salt, counter) gets the same fresh id.
  std::int32_t allocContext(std::int32_t parent, std::int64_t salt,
                            int counter);
  /// Per-rank pair-derivation counter, one sequence per (parent, peer).
  int nextPairDerivation(int world_rank, std::int32_t parent, int peer);
  /// Ensures the connection src->dst exists and returns its flow key.
  sim::Task<net::FlowKey> establishConnection(int src_world, int dst_world);
  /// The TCP socket carrying src->dst traffic, or null if not yet
  /// established (tracing hooks attach here).
  tcp::TcpSocket* connectionSocket(int src_world, int dst_world);

 private:
  struct OutboundConnection {
    std::unique_ptr<tcp::TcpSocket> socket;
    std::unique_ptr<sim::AsyncMutex> write_mutex;
    std::unique_ptr<sim::Condition> ready;
    bool connecting = false;
  };

  struct RankContext {
    int world_rank = 0;
    net::Host* host = nullptr;
    std::unique_ptr<tcp::TcpListener> listener;
    MatchingEngine matching;
    std::map<int, OutboundConnection> outgoing;  // dst world rank -> conn
    Comm world_comm;
    bool finished = false;
    std::map<std::pair<std::int32_t, int>, int> pair_derivations;

    explicit RankContext(sim::Simulator& sim) : matching(sim) {}
  };

  sim::Task<> acceptLoop(RankContext& rank);
  sim::Task<> readerLoop(RankContext& rank, tcp::TcpSocket* socket);
  OutboundConnection& connectionTo(RankContext& rank, int dst_world);

  sim::Simulator& sim_;
  Config config_;
  AttributeRegistry attributes_;
  std::vector<std::unique_ptr<RankContext>> ranks_;
  // Keeps accepted reader sockets alive.
  std::vector<std::unique_ptr<tcp::TcpSocket>> accepted_sockets_;
  std::map<std::tuple<std::int32_t, std::int64_t, int>, std::int32_t>
      context_cache_;
  std::int32_t next_context_ = 1;  // 0 = world
};

}  // namespace mgq::mpi
