// Communicators: process groups with an isolating context id, point-to-
// point messaging, nonblocking requests, collectives, attribute storage,
// and the pair communicator the paper's QoS targeting relies on ("by
// careful creation of appropriate communicators, [one can] target both
// queries and requests to specific links or sets of links").
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mpi/attributes.hpp"
#include "mpi/message.hpp"
#include "net/packet.hpp"
#include "sim/condition.hpp"
#include "sim/task.hpp"

namespace mgq::mpi {

class World;

/// Nonblocking operation state (MPI_Request).
struct RequestState {
  bool done = false;
  Message message;  // filled for receives
  std::unique_ptr<sim::Condition> cond;
};
using Request = std::shared_ptr<RequestState>;

class Comm {
 public:
  Comm() = default;  // invalid communicator (size 0)

  bool valid() const { return world_ != nullptr; }
  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  std::int32_t context() const { return context_; }
  World& world() const { return *world_; }
  /// World rank of communicator rank `r`.
  int worldRank(int r) const { return members_.at(static_cast<size_t>(r)); }

  // --- point-to-point ----------------------------------------------------
  sim::Task<> send(int dst, int tag, std::span<const std::uint8_t> data);
  sim::Task<> send(int dst, int tag, const std::vector<std::uint8_t>& data) {
    return send(dst, tag, std::span<const std::uint8_t>(data));
  }
  sim::Task<Message> recv(int src, int tag);

  Request isend(int dst, int tag, std::vector<std::uint8_t> data) {
    assert(tag >= 0 && "user tags must be non-negative");
    return isendOnContext(context_, dst, tag, std::move(data));
  }
  Request irecv(int src, int tag);
  sim::Task<Message> wait(Request request);
  bool test(const Request& request) const { return request->done; }

  // --- collectives ---------------------------------------------------------
  sim::Task<> barrier();
  /// Root's `data` is distributed; non-roots receive into `data`.
  sim::Task<> bcast(std::vector<std::uint8_t>& data, int root);
  /// Element-wise sums (MPI_SUM, the one operator the finite-difference
  /// residual needs); reduce leaves the result at `root` only.
  sim::Task<std::vector<double>> reduce(std::span<const double> contribution,
                                        int root);
  sim::Task<std::vector<double>> allreduce(
      std::span<const double> contribution);

  // --- attributes ----------------------------------------------------------
  /// Stores `value` under `k` and fires the keyval's put hook (the
  /// MPICH-GQ trigger). Returns false for unknown keyvals.
  bool attrPut(Keyval k, void* value);
  /// Retrieves the attribute; `flag` semantics of MPI_Attr_get.
  bool attrGet(Keyval k, void** value) const;

  // --- derivation ------------------------------------------------------------
  /// Collective between `rank()` and `other`: a two-party communicator
  /// (the paper's QoS unit). Both parties call it with each other's rank.
  sim::Task<Comm> createPair(int other);

  // --- QoS support -------------------------------------------------------
  /// Ensures TCP connections from this rank to every other member exist
  /// and returns their flow keys (my outgoing directions). This is the
  /// paper's "extract the necessary information (basically port and
  /// machine names) from a communicator".
  sim::Task<std::vector<net::FlowKey>> establishOutgoingFlows();

 private:
  friend class World;
  Comm(World& world, std::int32_t context, std::vector<int> members,
       int my_rank)
      : world_(&world),
        context_(context),
        members_(std::move(members)),
        my_rank_(my_rank) {}

  /// Collectives and derivation traffic run on a shadow context so user
  /// wildcard receives can never match them.
  std::int32_t internalContext() const { return context_ | 0x40000000; }

  sim::Task<> sendOnContext(std::int32_t ctx, int dst, int tag,
                            std::span<const std::uint8_t> data);
  sim::Task<Message> recvOnContext(std::int32_t ctx, int src, int tag);
  Request isendOnContext(std::int32_t ctx, int dst, int tag,
                         std::vector<std::uint8_t> data);

  World* world_ = nullptr;
  std::int32_t context_ = 0;
  std::vector<int> members_;  // world ranks, index = comm rank
  int my_rank_ = -1;
  std::map<Keyval, void*> attrs_;
};

}  // namespace mgq::mpi
